#include "src/apps/magic.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/crc32.h"

namespace ftx_apps {
namespace {

constexpr int64_t kHeaderOffset = 0;
constexpr int64_t kControlOffset = 256;
constexpr int64_t kControlSize = 768;
constexpr int64_t kScratchOffset = 4096;
constexpr int64_t kScratchSize = 4096;
constexpr int64_t kGridOffset = 8192;
constexpr uint64_t kHeaderMagic = 0x6d61676963766c73ULL;
// The undo buffer sits after the grid and holds a before-image of the last
// command's affected region.
constexpr int64_t kUndoBytes = 2 * 1024 * 1024;

struct MagicState {
  uint64_t magic = kHeaderMagic;
  int64_t command_count = 0;
  int64_t cells_painted = 0;
  int32_t grid_dim = 0;
  int32_t current_layer = 1;
};

// Command and Scratch name their padding bytes, so command tokens and the
// scratch area the segment persists carry no indeterminate stack bytes.
struct Command {
  uint8_t opcode = 0;  // 'P' paint, 'E' erase, 'W' wire, 'F' fill
  uint8_t reserved[3] = {};
  int32_t x = 0;
  int32_t y = 0;
  int32_t w = 0;
  int32_t h = 0;
  int32_t layer = 1;
};

struct Scratch {
  Command command;
  int64_t cells_touched = 0;
  uint32_t region_crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(Command) == 24 && sizeof(Scratch) == 40, "magic layout has no padding");

MagicState LoadState(ftx_dc::ProcessEnv& env) {
  return env.segment().Read<MagicState>(kHeaderOffset);
}

void StoreState(ftx_dc::ProcessEnv& env, const MagicState& state) {
  env.segment().WriteValue(kHeaderOffset, state);
}

int64_t CellOffset(int32_t grid_dim, int32_t x, int32_t y) {
  return kGridOffset + (static_cast<int64_t>(y) * grid_dim + x) * static_cast<int64_t>(sizeof(int32_t));
}

// Sets each of row[0, width) to op(old value). The inner loop over a fixed
// 16 cells has a trip count known at compile time, which GCC's -O2
// vectorizer (its very-cheap cost model) requires; the last width % 16
// cells run one at a time.
template <typename Op>
void ForEachCell(int32_t* row, int32_t width, Op op) {
  constexpr int32_t kBlock = 16;
  int32_t x = 0;
  for (; x + kBlock <= width; x += kBlock) {
    for (int32_t i = 0; i < kBlock; ++i) {
      row[x + i] = op(row[x + i]);
    }
  }
  for (; x < width; ++x) {
    row[x] = op(row[x]);
  }
}

}  // namespace

Magic::Magic(MagicOptions options) : options_(options) {}

size_t Magic::SegmentBytes() const {
  int64_t grid_bytes = static_cast<int64_t>(options_.grid_dim) * options_.grid_dim *
                       static_cast<int64_t>(sizeof(int32_t));
  return static_cast<size_t>(kGridOffset + grid_bytes + kUndoBytes + HeapBytes() + 4096);
}

int64_t Magic::HeapOffset() const {
  return kGridOffset +
         static_cast<int64_t>(options_.grid_dim) * options_.grid_dim *
             static_cast<int64_t>(sizeof(int32_t)) +
         kUndoBytes;
}

void Magic::Init(ftx_dc::ProcessEnv& env) {
  MagicState state;
  state.grid_dim = options_.grid_dim;
  StoreState(env, state);
  ftx_dc::InitFaultControlArea(env, kControlOffset, kControlSize);
  // A small netlist arena gives the fault injector heap targets.
  for (int i = 0; i < 16; ++i) {
    ftx::Result<int64_t> block = env.heap().Alloc(512);
    FTX_CHECK(block.ok());
    uint8_t* p = env.segment().OpenForWrite(*block, 512);
    std::fill(p, p + 512, static_cast<uint8_t>(i + 1));
  }
}

ftx_dc::StepOutcome Magic::Step(ftx_dc::ProcessEnv& env) {
  // A command is typed as 2-3 keystroke tokens; the final token carries the
  // command descriptor.
  Command command;
  bool have_command = false;
  for (int i = 0; i < 4 && !have_command; ++i) {
    std::optional<ftx::Bytes> token = env.ReadUserInput();
    if (!token.has_value()) {
      return ftx_dc::StepOutcome{ftx_dc::StepOutcome::Status::kDone, ftx::Duration()};
    }
    if (token->size() >= sizeof(Command)) {
      size_t offset = 0;
      FTX_CHECK(ftx::ReadValue(*token, &offset, &command));
      have_command = true;
    }
  }
  if (!have_command) {
    return ftx_dc::StepOutcome{ftx_dc::StepOutcome::Status::kContinue, options_.think_time};
  }

  MagicState state = LoadState(env);
  if (state.magic != kHeaderMagic) {
    env.Crash("magic: header corrupted");
    return ftx_dc::StepOutcome{};
  }
  ++state.command_count;

  Scratch scratch;
  scratch.command = command;

  const int32_t dim = state.grid_dim;
  int32_t x0 = std::clamp(command.x, 0, dim - 1);
  int32_t y0 = std::clamp(command.y, 0, dim - 1);
  int32_t x1 = std::clamp(command.x + command.w, 0, dim);
  int32_t y1 = std::clamp(command.y + command.h, 0, dim);

  // Snapshot the affected region into the undo buffer first (the paint is
  // undoable), then paint.
  if (options_.undo_snapshot) {
    int64_t undo_offset = kGridOffset + static_cast<int64_t>(options_.grid_dim) *
                                            options_.grid_dim * static_cast<int64_t>(sizeof(int32_t));
    int64_t undo_cursor = undo_offset;
    const int64_t undo_end = undo_offset + kUndoBytes;
    for (int32_t y = y0; y < y1; ++y) {
      int64_t row_bytes = static_cast<int64_t>(x1 - x0) * static_cast<int64_t>(sizeof(int32_t));
      if (row_bytes <= 0 || undo_cursor + row_bytes > undo_end) {
        break;
      }
      const uint8_t* src = env.segment().data() + CellOffset(dim, x0, y);
      env.segment().Write(undo_cursor, src, static_cast<size_t>(row_bytes));
      undo_cursor += row_bytes;
    }
  }

  // Paint row by row, CRCing each painted row. The opcode is dispatched
  // once per row, not per cell, and every cell loop goes through
  // ForEachCell so the compiler vectorizes it; 'F' and any unknown opcode
  // fill only empty cells.
  const int32_t width = x1 - x0;
  const int32_t layer = command.layer;
  uint32_t crc = 0;
  for (int32_t y = y0; y < y1; ++y) {
    int64_t row_offset = CellOffset(dim, x0, y);
    int64_t row_bytes = static_cast<int64_t>(width) * static_cast<int64_t>(sizeof(int32_t));
    if (row_bytes <= 0) {
      continue;
    }
    auto* row = reinterpret_cast<int32_t*>(env.segment().OpenForWrite(row_offset, row_bytes));
    switch (command.opcode) {
      case 'P':
        ForEachCell(row, width, [layer](int32_t) { return layer; });
        break;
      case 'E':
        ForEachCell(row, width, [](int32_t) { return 0; });
        break;
      case 'W':
        ForEachCell(row, width, [wire = layer << 8](int32_t cell) { return cell | wire; });
        break;
      case 'F':
      default:
        ForEachCell(row, width, [layer](int32_t cell) { return cell == 0 ? layer : cell; });
        break;
    }
    scratch.cells_touched += width;
    crc = ftx::Crc32Extend(crc, row, static_cast<size_t>(row_bytes));
  }
  scratch.region_crc = crc;
  state.cells_painted += scratch.cells_touched;
  env.segment().WriteValue(kScratchOffset, scratch);
  StoreState(env, state);

  // All mutations are stored; only now may events that can commit run —
  // a commit must always capture the command's effect along with its
  // consumed input tokens, or reexecution would lose the command.
  env.Compute(options_.work_per_command);
  // The command handler timestamps the operation and polls for X events —
  // the unloggable transient ND that dominates magic's CAND-LOG commits.
  (void)env.GetTimeOfDay();
  (void)env.TryReceive();

  // Redraw: the visible event for this command.
  ftx::Bytes redraw;
  redraw.push_back('R');
  ftx::AppendValue(&redraw, state.command_count);
  ftx::AppendValue(&redraw, scratch.region_crc);
  ftx::AppendValue(&redraw, state.cells_painted);
  env.Print(std::move(redraw));

  return ftx_dc::StepOutcome{ftx_dc::StepOutcome::Status::kContinue, options_.think_time};
}

ftx_dc::FaultSurface Magic::fault_surface() const {
  ftx_dc::FaultSurface surface;
  surface.scratch_offset = kScratchOffset;
  surface.scratch_size = kScratchSize;
  surface.static_offset = kHeaderOffset;
  surface.static_size = kScratchOffset + kScratchSize;
  surface.control_offset = kControlOffset;
  surface.control_size = kControlSize;
  return surface;
}

ftx::Status Magic::CheckIntegrity(ftx_dc::ProcessEnv& env) {
  MagicState state = LoadState(env);
  if (state.magic != kHeaderMagic) {
    return ftx::DataLossError("magic: header corrupted");
  }
  if (state.grid_dim <= 0 || state.cells_painted < 0) {
    return ftx::DataLossError("magic: state invariants violated");
  }
  return env.heap().CheckGuards();
}

int64_t Magic::PaintedCells(ftx_dc::ProcessEnv& env) {
  MagicState state = LoadState(env);
  int64_t painted = 0;
  for (int32_t y = 0; y < state.grid_dim; ++y) {
    for (int32_t x = 0; x < state.grid_dim; ++x) {
      if (env.segment().Read<int32_t>(CellOffset(state.grid_dim, x, y)) != 0) {
        ++painted;
      }
    }
  }
  return painted;
}

std::vector<ftx::Bytes> Magic::MakeScript(uint64_t seed, int commands) {
  ftx::Rng rng(seed);
  std::vector<ftx::Bytes> script;
  const char opcodes[] = {'P', 'P', 'P', 'E', 'W', 'F'};
  for (int i = 0; i < commands; ++i) {
    // 1-2 partial keystrokes, then the command token.
    int partials = static_cast<int>(rng.NextInRange(1, 2));
    for (int k = 0; k < partials; ++k) {
      script.push_back(ftx::Bytes{static_cast<uint8_t>('a' + rng.NextBounded(26))});
    }
    Command command;
    command.opcode = static_cast<uint8_t>(opcodes[rng.NextBounded(6)]);
    command.x = static_cast<int32_t>(rng.NextBounded(700));
    command.y = static_cast<int32_t>(rng.NextBounded(700));
    command.w = static_cast<int32_t>(300 + rng.NextBounded(400));
    command.h = static_cast<int32_t>(300 + rng.NextBounded(400));
    command.layer = static_cast<int32_t>(1 + rng.NextBounded(6));
    ftx::Bytes token;
    ftx::AppendValue(&token, command);
    script.push_back(std::move(token));
  }
  return script;
}

}  // namespace ftx_apps
