// A map from counter-assigned ids (message ids) to small values.
//
// Message ids come from counters: the network numbers its messages from 0,
// the 2PC coordinator from 1e15, the script replayer from 2^40. Each counter
// yields a dense run of ids, so the map keeps runs of fixed-size pages
// instead of a tree or a hash table. An insert writes a slot in place (one
// allocation per kPageSize ids, never one per entry, and nothing stored ever
// moves or is rehashed); a lookup is a binary search over the few runs plus
// two array indexes, and never modifies the map. Any id >= 0 is accepted:
// an id far from every run starts a run of its own, at the cost of a page.

#ifndef FTX_SRC_COMMON_ID_MAP_H_
#define FTX_SRC_COMMON_ID_MAP_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"

namespace ftx {

template <typename V>
class IdMap {
 public:
  static constexpr int kPageBits = 10;
  static constexpr int64_t kPageSize = int64_t{1} << kPageBits;

  // Stores `value` under `id` unless the id is already present, and returns
  // whether it stored: the first value stored under an id stays.
  bool Insert(int64_t id, const V& value) {
    FTX_CHECK_MSG(id >= 0, "IdMap id %lld is negative", static_cast<long long>(id));
    Page& page = PageFor(id >> kPageBits);
    const auto slot = static_cast<size_t>(id & (kPageSize - 1));
    const uint64_t bit = uint64_t{1} << (slot % 64);
    uint64_t& word = page.present[slot / 64];
    if ((word & bit) != 0) {
      return false;
    }
    word |= bit;
    page.values[slot] = value;
    ++size_;
    return true;
  }

  // The value stored under `id`, or null.
  const V* Find(int64_t id) const {
    if (id < 0) {
      return nullptr;
    }
    const int64_t page_number = id >> kPageBits;
    const size_t next = FirstRunAfter(page_number);
    if (next == 0) {
      return nullptr;
    }
    const Run& run = runs_[next - 1];
    const auto index = static_cast<size_t>(page_number - run.first_page);
    if (index >= run.pages.size() || run.pages[index] == nullptr) {
      return nullptr;
    }
    const Page& page = *run.pages[index];
    const auto slot = static_cast<size_t>(id & (kPageSize - 1));
    if (((page.present[slot / 64] >> (slot % 64)) & 1) == 0) {
      return nullptr;
    }
    return &page.values[slot];
  }

  int64_t size() const { return size_; }

 private:
  // Ids [n * kPageSize, (n + 1) * kPageSize) of page number n.
  struct Page {
    std::array<uint64_t, kPageSize / 64> present{};
    std::array<V, kPageSize> values{};
  };
  // Consecutive page numbers from first_page on; null where no id landed.
  struct Run {
    int64_t first_page = 0;
    std::vector<std::unique_ptr<Page>> pages;
  };
  // A page at most this many pages past a run's end extends the run (each
  // page of the gap costs a null pointer); one farther away starts a run.
  static constexpr int64_t kMaxGapPages = 64;

  // Index of the first run that starts after `page_number`.
  size_t FirstRunAfter(int64_t page_number) const {
    auto after = std::upper_bound(runs_.begin(), runs_.end(), page_number,
                                  [](int64_t n, const Run& run) { return n < run.first_page; });
    return static_cast<size_t>(after - runs_.begin());
  }

  Page& PageFor(int64_t page_number) {
    const size_t next = FirstRunAfter(page_number);
    if (next > 0) {
      // Run next - 1 starts at or before the page and run `next` after it,
      // so growing run next - 1 up to the page overlaps nothing.
      Run& run = runs_[next - 1];
      const int64_t index = page_number - run.first_page;
      const auto size = static_cast<int64_t>(run.pages.size());
      if (index < size + kMaxGapPages) {
        if (index >= size) {
          run.pages.resize(static_cast<size_t>(index) + 1);
        }
        std::unique_ptr<Page>& page = run.pages[static_cast<size_t>(index)];
        if (page == nullptr) {
          page = std::make_unique<Page>();
        }
        return *page;
      }
    }
    Run& run = *runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(next),
                             Run{page_number, {}});
    run.pages.push_back(std::make_unique<Page>());
    return *run.pages.back();
  }

  std::vector<Run> runs_;  // sorted by first_page, disjoint
  int64_t size_ = 0;
};

}  // namespace ftx

#endif  // FTX_SRC_COMMON_ID_MAP_H_
