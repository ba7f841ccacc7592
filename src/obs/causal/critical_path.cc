#include "src/obs/causal/critical_path.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace ftx_causal {

namespace {

constexpr const char* kDetection = "detection";
constexpr const char* kLogScan = "log_scan";
constexpr const char* kPageInstall = "page_install";
constexpr const char* kUndoRollback = "undo_rollback";
constexpr const char* kRebuild = "rebuild";
constexpr const char* kReExecution = "re_execution";
constexpr const char* kMessage = "message";

}  // namespace

CriticalPathTracker::CriticalPathTracker(int num_processes, std::function<int64_t()> now_ns)
    : num_processes_(num_processes), now_ns_(std::move(now_ns)) {
  FTX_CHECK_GT(num_processes, 0);
  FTX_CHECK(now_ns_ != nullptr);
  taint_.resize(static_cast<size_t>(num_processes));
  recoveries_.resize(static_cast<size_t>(num_processes));
}

void CriticalPathTracker::TaintProcess(int pid, const Taint& taint) {
  Taint& slot = taint_[static_cast<size_t>(pid)];
  if (slot.tainted) {
    return;  // first taint wins; later edges cannot start an earlier chain
  }
  slot = taint;
  slot.tainted = true;
}

void CriticalPathTracker::OnCrash(int pid) {
  if (pid < 0 || pid >= num_processes_) {
    return;
  }
  ++crashes_;
  Taint t;
  t.at_ns = now_ns_();
  t.via_crash = true;
  TaintProcess(pid, t);
}

void CriticalPathTracker::OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev) {
  (void)ref;
  const int pid = static_cast<int>(ev.process);
  if (pid < 0 || pid >= num_processes_) {
    return;
  }
  const bool tainted = taint_[static_cast<size_t>(pid)].tainted;
  switch (ev.kind) {
    case ftx_sm::EventKind::kCrash: {
      ++crashes_;
      Taint t;
      t.at_ns = now_ns_();
      t.via_crash = true;
      TaintProcess(pid, t);
      break;
    }
    case ftx_sm::EventKind::kSend: {
      // Only tainted sends can propagate taint; untainted ones need no entry.
      if (tainted && ev.message_id >= 0) {
        tainted_sends_.Insert(ev.message_id, SendInfo{pid, now_ns_()});
      }
      break;
    }
    case ftx_sm::EventKind::kReceive: {
      // First taint wins, so a tainted receiver has nothing to look up.
      const SendInfo* send = tainted ? nullptr : tainted_sends_.Find(ev.message_id);
      if (send == nullptr) {
        break;
      }
      Taint t;
      t.at_ns = now_ns_();
      t.via_crash = false;
      t.from_pid = send->pid;
      t.send_ns = send->t_ns;
      t.message_id = ev.message_id;
      TaintProcess(pid, t);
      break;
    }
    case ftx_sm::EventKind::kCommit: {
      // "Last" by execution order: the simulator's global (time, seq) order
      // makes ties at equal times deterministic too.
      if (tainted) {
        last_commit_pid_ = pid;
        last_commit_ns_ = now_ns_();
      }
      break;
    }
    default:
      break;
  }
}

void CriticalPathTracker::OnRecovery(int pid, int64_t start_ns, int64_t end_ns,
                                     const RecoveryPhases& phases) {
  if (pid < 0 || pid >= num_processes_) {
    return;
  }
  recoveries_[static_cast<size_t>(pid)].push_back(Recovery{start_ns, end_ns, phases});
}

int64_t CriticalPathTracker::tainted_processes() const {
  int64_t n = 0;
  for (const Taint& t : taint_) {
    n += t.tainted ? 1 : 0;
  }
  return n;
}

CriticalPathTracker::Path CriticalPathTracker::Extract() const {
  Path path;
  path.found = last_commit_pid_ >= 0;
  if (!path.found) {
    return path;
  }
  path.last_pid = last_commit_pid_;
  path.last_commit_ns = last_commit_ns_;

  // Backward walk: each step covers one process's span [taint, end) and then
  // jumps to the process that tainted it. Hops are collected back-to-front
  // and reversed at the end. The walk terminates at a via_crash taint; the
  // taint graph is acyclic in time (every edge strictly decreases `end`,
  // except possibly the last same-instant receive, bounded by num_processes
  // first-taint edges), so the loop bound is a belt-and-braces guard.
  std::vector<Hop> reversed;
  int pid = last_commit_pid_;
  int64_t end = last_commit_ns_;
  for (int steps = 0; steps <= num_processes_; ++steps) {
    const Taint& t = taint_[static_cast<size_t>(pid)];
    FTX_CHECK_MSG(t.tainted, "critical path reached untainted process p%d", pid);
    if (t.via_crash) {
      // Decompose [crash, end): detection until the first recovery that
      // started at/after the crash, its charged phases, then re-execution.
      const int64_t crash = t.at_ns;
      const Recovery* rec = nullptr;
      for (const Recovery& r : recoveries_[static_cast<size_t>(pid)]) {
        if (r.start_ns >= crash) {
          rec = &r;
          break;
        }
      }
      int64_t cursor = end;
      if (rec != nullptr && rec->end_ns <= end) {
        if (end > rec->end_ns) {
          reversed.push_back(Hop{pid, kReExecution, rec->end_ns, end - rec->end_ns});
        }
        // Phase spans are laid out in charge order inside [start, end); any
        // slack the runtime charged beyond the itemized phases (scheduling
        // rounding) is folded into the last itemized phase's span so the
        // spans tile the interval exactly.
        const RecoveryPhases& ph = rec->phases;
        int64_t at = rec->start_ns;
        struct Item {
          const char* name;
          int64_t ns;
        };
        const Item items[] = {{kLogScan, ph.log_scan_ns},
                              {kPageInstall, ph.page_install_ns},
                              {kUndoRollback, ph.undo_rollback_ns},
                              {kRebuild, ph.rebuild_ns}};
        std::vector<Hop> phase_hops;
        for (const Item& item : items) {
          if (item.ns > 0) {
            phase_hops.push_back(Hop{pid, item.name, at, item.ns});
            at += item.ns;
          }
        }
        const int64_t slack = rec->end_ns - at;
        if (slack > 0 && !phase_hops.empty()) {
          phase_hops.back().dur_ns += slack;
        } else if (slack > 0) {
          phase_hops.push_back(Hop{pid, kRebuild, at, slack});
        }
        for (auto it = phase_hops.rbegin(); it != phase_hops.rend(); ++it) {
          reversed.push_back(*it);
        }
        cursor = rec->start_ns;
        if (cursor > crash) {
          reversed.push_back(Hop{pid, kDetection, crash, cursor - crash});
        }
      } else if (cursor > crash) {
        // No completed recovery inside the span (abandoned or still down):
        // the whole wait is detection latency.
        reversed.push_back(Hop{pid, kDetection, crash, cursor - crash});
      }
      path.root_pid = pid;
      path.root_crash_ns = crash;
      break;
    }
    // Tainted by a message: re-execution from the receive to this span's
    // end, then the message hop, then continue at the sender.
    if (end > t.at_ns) {
      reversed.push_back(Hop{pid, kReExecution, t.at_ns, end - t.at_ns});
    }
    if (t.at_ns > t.send_ns) {
      reversed.push_back(Hop{t.from_pid, kMessage, t.send_ns, t.at_ns - t.send_ns});
    }
    pid = t.from_pid;
    end = t.send_ns;
  }
  FTX_CHECK_MSG(path.root_pid >= 0, "critical-path walk did not reach a crash root");

  std::reverse(reversed.begin(), reversed.end());
  path.span_ns = path.last_commit_ns - path.root_crash_ns;
  path.hops_total = static_cast<int64_t>(reversed.size());
  for (const Hop& h : reversed) {
    path.totals_ns[h.phase] += h.dur_ns;
    // Binding span: strictly-greater keeps the EARLIEST maximal hop, a
    // deterministic tie-break.
    if (h.dur_ns > path.binding_ns) {
      path.binding_ns = h.dur_ns;
      path.binding_pid = h.pid;
      path.binding_phase = h.phase;
    }
  }
  if (static_cast<int>(reversed.size()) > kMaxHopsInReport) {
    reversed.resize(static_cast<size_t>(kMaxHopsInReport));
  }
  path.hops = std::move(reversed);
  return path;
}

ftx_obs::Json CriticalPathTracker::ToJson() const {
  const Path path = Extract();
  ftx_obs::Json j = ftx_obs::Json::Object();
  j.Set("schema_version", kCriticalPathSchemaVersion);
  j.Set("crashes", crashes_);
  j.Set("tainted_processes", tainted_processes());
  j.Set("tainted_messages", tainted_messages());
  j.Set("found", path.found);
  if (!path.found) {
    return j;
  }
  j.Set("root_pid", path.root_pid);
  j.Set("root_crash_ns", path.root_crash_ns);
  j.Set("last_pid", path.last_pid);
  j.Set("last_commit_ns", path.last_commit_ns);
  j.Set("span_ns", path.span_ns);
  ftx_obs::Json binding = ftx_obs::Json::Object();
  binding.Set("pid", path.binding_pid);
  binding.Set("phase", path.binding_phase);
  binding.Set("ns", path.binding_ns);
  j.Set("binding", std::move(binding));
  ftx_obs::Json totals = ftx_obs::Json::Object();
  for (const auto& kv : path.totals_ns) {
    totals.Set(kv.first, kv.second);
  }
  j.Set("totals_ns", std::move(totals));
  ftx_obs::Json hops = ftx_obs::Json::Array();
  for (const Hop& h : path.hops) {
    ftx_obs::Json hop = ftx_obs::Json::Object();
    hop.Set("pid", h.pid);
    hop.Set("phase", h.phase);
    hop.Set("start_ns", h.start_ns);
    hop.Set("dur_ns", h.dur_ns);
    hops.Push(std::move(hop));
  }
  j.Set("hops", std::move(hops));
  j.Set("hops_total", path.hops_total);
  return j;
}

}  // namespace ftx_causal
