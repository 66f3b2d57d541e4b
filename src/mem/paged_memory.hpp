// Functional simulated memory: a sparse, paged, word-granular flat address
// space shared by all threads of an application (and, in the high-end
// machine, by all chips — coherence is a *timing* concern handled in noc/).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace csmt::mem {

/// 4 KiB pages; also the TLB translation granularity.
inline constexpr std::size_t kPageBytes = 4096;
inline constexpr std::size_t kPageWords = kPageBytes / kWordBytes;

inline constexpr Addr page_of(Addr a) { return a / kPageBytes; }

class PagedMemory {
 public:
  /// Reads the 64-bit word at byte address `a` (must be 8-byte aligned).
  /// Untouched memory reads as zero.
  std::uint64_t read(Addr a) const {
    check_aligned(a);
    if (const Index* idx = index_.load(std::memory_order_acquire)) {
      const Page* p = idx->lookup(page_of(a));
      return p ? p->words[word_index(a)] : 0;
    }
    const auto it = pages_.find(page_of(a));
    if (it == pages_.end()) return 0;
    return it->second->words[word_index(a)];
  }

  /// Writes the 64-bit word at byte address `a`.
  void write(Addr a, std::uint64_t v) {
    check_aligned(a);
    page(a).words[word_index(a)] = v;
  }

  double read_double(Addr a) const { return std::bit_cast<double>(read(a)); }
  void write_double(Addr a, double v) {
    write(a, std::bit_cast<std::uint64_t>(v));
  }

  /// Atomic exchange: returns the old value.
  std::uint64_t amo_swap(Addr a, std::uint64_t v) {
    check_aligned(a);
    std::uint64_t& slot = page(a).words[word_index(a)];
    const std::uint64_t old = slot;
    slot = v;
    return old;
  }

  /// Atomic fetch-and-add: returns the old value.
  std::uint64_t amo_add(Addr a, std::uint64_t v) {
    check_aligned(a);
    std::uint64_t& slot = page(a).words[word_index(a)];
    const std::uint64_t old = slot;
    slot = old + v;
    return old;
  }

  /// Number of materialized pages (for tests / footprint reporting).
  std::size_t resident_pages() const { return pages_.size(); }

  /// Frees every materialized page, the concurrent-index tables, and the
  /// map's bucket array, returning the object to its fresh sequential
  /// state. Sweep points call this once their run has completed and been
  /// validated, so a grid's peak footprint tracks one point's address
  /// space, not the sum of every point the process has run. Not safe while
  /// worker lanes are live.
  void release() {
    index_.store(nullptr, std::memory_order_release);
    indexes_.clear();
    indexes_.shrink_to_fit();
    std::unordered_map<Addr, std::unique_ptr<Page>>().swap(pages_);
  }

  /// Arms the lock-free page index for the parallel kernel (DESIGN.md §13):
  /// after this, lookups probe an open-addressed atomic table instead of
  /// the unordered_map (whose buckets are not safe to read while another
  /// lane inserts), and page *creation* serializes on a mutex. Reading a
  /// page mid-creation returns zero — correct, because a word that did not
  /// exist at the cycle boundary is untouched, and conflicting same-cycle
  /// same-word accesses only occur in programs that race (excluded by the
  /// deferral of atomics/sync ops to the barrier). Call once, after any
  /// checkpoint restore, before the worker lanes start ticking.
  void enable_concurrent_index() {
    std::lock_guard<std::mutex> lk(create_mu_);
    unsigned log2cap = 4;
    while ((pages_.size() + 1) * 4 > (std::size_t{1} << log2cap) * 3) {
      ++log2cap;
    }
    ++log2cap;  // headroom before the first growth
    auto idx = std::make_unique<Index>(log2cap);
    for (const auto& [k, p] : pages_) index_insert_slot(*idx, k, p.get());
    idx->used = pages_.size();
    indexes_.push_back(std::move(idx));
    index_.store(indexes_.back().get(), std::memory_order_release);
  }

  /// Checkpoint visitor (ckpt::Serializer). Pages are written in sorted key
  /// order so the byte stream is deterministic; the map's iteration order
  /// never affects simulation (lookup-only), so restore order is free.
  template <class Serializer>
  void serialize(Serializer& s) {
    if (s.saving()) {
      std::vector<Addr> keys;
      keys.reserve(pages_.size());
      for (const auto& [k, p] : pages_) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      std::uint64_t n = keys.size();
      s.io(n);
      for (Addr k : keys) {
        s.io(k);
        s.io_bytes(pages_.at(k)->words, kPageBytes);
      }
      return;
    }
    pages_.clear();
    std::uint64_t n = 0;
    s.io(n);
    if (!s.bounded_count(n)) return;
    for (std::uint64_t i = 0; i < n && s.ok(); ++i) {
      Addr k = 0;
      s.io(k);
      auto& slot = pages_[k];
      if (!slot) slot = std::make_unique<Page>();
      s.io_bytes(slot->words, kPageBytes);
    }
  }

  /// Load-mode visit of a saved memory that keeps none of it: the same
  /// reads and checks as serialize(), with every page read into one
  /// scratch buffer. A checkpoint dry run decodes memory this way, so it
  /// can refuse a payload without a second copy of the pages.
  template <class Serializer>
  static void skim(Serializer& s) {
    std::uint64_t n = 0;
    s.io(n);
    if (!s.bounded_count(n)) return;
    Page scratch;
    for (std::uint64_t i = 0; i < n && s.ok(); ++i) {
      Addr k = 0;
      s.io(k);
      s.io_bytes(scratch.words, kPageBytes);
    }
  }

 private:
  struct Page {
    std::uint64_t words[kPageWords] = {};
  };

  /// Lock-free open-addressed page index (Fibonacci hashing, linear
  /// probing). Entries are only ever added (pages never free); a writer
  /// publishes the page pointer before the key (release), so a reader that
  /// observes the key (acquire) sees the pointer. Page objects themselves
  /// are stable: the map owns them through unique_ptr and never rehashes
  /// them away.
  static constexpr Addr kEmptyIndexKey = ~Addr{0};
  struct Index {
    struct Slot {
      std::atomic<Addr> key{kEmptyIndexKey};
      std::atomic<Page*> page{nullptr};
    };
    explicit Index(unsigned log2cap)
        : shift(64 - log2cap),
          mask((std::size_t{1} << log2cap) - 1),
          slots(std::make_unique<Slot[]>(std::size_t{1} << log2cap)) {}
    std::size_t probe_start(Addr key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }
    Page* lookup(Addr key) const {
      for (std::size_t i = probe_start(key);; i = (i + 1) & mask) {
        const Slot& s = slots[i];
        const Addr k = s.key.load(std::memory_order_acquire);
        if (k == key) return s.page.load(std::memory_order_relaxed);
        if (k == kEmptyIndexKey) return nullptr;
      }
    }
    unsigned shift;
    std::size_t mask;
    std::size_t used = 0;  ///< guarded by create_mu_
    std::unique_ptr<Slot[]> slots;
  };

  static void check_aligned(Addr a) {
    CSMT_ASSERT_MSG((a & (kWordBytes - 1)) == 0,
                    "unaligned word access in functional memory");
  }
  static std::size_t word_index(Addr a) {
    return (a % kPageBytes) / kWordBytes;
  }

  /// Publication-safe slot insert (only ever called under create_mu_, or on
  /// an index that has not been published yet).
  static void index_insert_slot(Index& idx, Addr key, Page* p) {
    for (std::size_t i = idx.probe_start(key);; i = (i + 1) & idx.mask) {
      Index::Slot& s = idx.slots[i];
      if (s.key.load(std::memory_order_relaxed) == kEmptyIndexKey) {
        s.page.store(p, std::memory_order_relaxed);
        s.key.store(key, std::memory_order_release);
        return;
      }
    }
  }

  Page& page(Addr a) {
    const Addr key = page_of(a);
    if (Index* idx = index_.load(std::memory_order_acquire)) {
      if (Page* p = idx->lookup(key)) return *p;
      return create_page_locked(key);
    }
    auto& slot = pages_[key];
    if (!slot) slot = std::make_unique<Page>();
    return *slot;
  }

  /// Armed-index slow path: materializes a page (or finds one another lane
  /// just created) under the creation mutex.
  Page& create_page_locked(Addr key) {
    std::lock_guard<std::mutex> lk(create_mu_);
    auto& slot = pages_[key];
    if (!slot) {
      slot = std::make_unique<Page>();
      Index* idx = indexes_.back().get();
      if ((idx->used + 1) * 4 > (idx->mask + 1) * 3) {
        // Growth: build the doubled table aside, then publish it. The old
        // table stays alive (readers may still hold its pointer this
        // cycle); all its Page pointers remain valid forever.
        auto bigger = std::make_unique<Index>(64 - idx->shift + 1);
        for (const auto& [k, p] : pages_) index_insert_slot(*bigger, k, p.get());
        bigger->used = pages_.size();
        indexes_.push_back(std::move(bigger));
        index_.store(indexes_.back().get(), std::memory_order_release);
      } else {
        index_insert_slot(*idx, key, slot.get());
        ++idx->used;
      }
    }
    return *slot;
  }

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  std::atomic<Index*> index_{nullptr};           ///< null = sequential path
  std::vector<std::unique_ptr<Index>> indexes_;  ///< current + retired
  std::mutex create_mu_;
};

/// Bump allocator over a PagedMemory address space. Workloads use it to lay
/// out their arrays, locks, and barriers; it never frees (simulated programs
/// allocate once at startup, like the paper's Fortran/SPLASH codes).
class SimAlloc {
 public:
  /// Base > 0 so that address 0 can serve as a null sentinel.
  /// `skew_bytes` is inserted between consecutive allocations so that
  /// power-of-two-sized arrays do not land at exact multiples of the cache
  /// way size and alias onto the same sets (the padding a Fortran
  /// programmer of the era applied by hand). 9 lines by default.
  explicit SimAlloc(Addr base = kPageBytes, std::size_t skew_bytes = 576)
      : next_(base), skew_(skew_bytes) {}

  /// Allocates `bytes`, aligned to `align` (a power of two >= 8).
  Addr alloc(std::size_t bytes, std::size_t align = kWordBytes) {
    CSMT_ASSERT(align >= kWordBytes && (align & (align - 1)) == 0);
    next_ = (next_ + align - 1) & ~static_cast<Addr>(align - 1);
    const Addr a = next_;
    next_ += bytes + skew_;
    return a;
  }

  /// Allocates an array of `n` 64-bit words (doubles or integers).
  Addr alloc_words(std::size_t n, std::size_t align = kWordBytes) {
    return alloc(n * kWordBytes, align);
  }

  /// Allocates a cache-line-aligned word (locks, barrier slots) so that
  /// distinct sync variables never share a coherence unit.
  Addr alloc_sync_line(std::size_t line_bytes = 64) {
    return alloc(line_bytes, line_bytes);
  }

  Addr high_water() const { return next_; }

 private:
  Addr next_;
  std::size_t skew_;
};

}  // namespace csmt::mem
