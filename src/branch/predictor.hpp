// Branch prediction, per the paper's base core (§3.1): a 2K-entry
// direct-mapped table of 2-bit saturating counters addressed by low-order PC
// bits, plus a branch target buffer. Multiple predictions may be outstanding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace csmt::branch {

struct PredictorStats {
  std::uint64_t cond_lookups = 0;
  std::uint64_t cond_mispredicts = 0;
  std::uint64_t btb_misses = 0;

  double mispredict_rate() const {
    return cond_lookups
               ? static_cast<double>(cond_mispredicts + btb_misses) /
                     static_cast<double>(cond_lookups)
               : 0.0;
  }
};

class BranchPredictor {
 public:
  /// `entries` must be a power of two (default 2K, per the paper).
  explicit BranchPredictor(std::size_t entries = 2048,
                           std::size_t btb_entries = 2048);

  /// Predicts the conditional branch at static index `pc`, then updates the
  /// counter and BTB with the actual outcome (the functional front end
  /// resolves branches at fetch). Returns true iff the prediction was
  /// correct: direction matched, and for a taken branch the BTB held the
  /// correct target.
  bool predict_and_update(std::uint64_t pc, bool actual_taken,
                          std::uint64_t actual_target);

  /// Direction prediction only, without update (for tests).
  bool peek_direction(std::uint64_t pc) const;

  const PredictorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Checkpoint visitor (ckpt::Serializer): counter table, BTB, counters.
  /// The BTB travels as a sparse table of its filled entries' (index, tag,
  /// target) records: an empty entry's tag (kEmptyTag) never matches a pc,
  /// so its target is never read, and the loader resets every entry before
  /// applying the records (refusing one with an empty tag).
  template <class Serializer>
  void serialize(Serializer& s) {
    s.check(counters_.size(), "predictor entries");
    s.check(btb_.size(), "btb entries");
    for (auto& c : counters_) s.io(c);
    if (s.loading()) std::fill(btb_.begin(), btb_.end(), BtbEntry{});
    s.io_sparse(
        btb_.size(), [&](std::uint64_t i) { return btb_[i].tag != kEmptyTag; },
        [&](std::uint64_t i) {
          s.io(btb_[i].tag);
          s.io(btb_[i].target);
          if (s.loading() && btb_[i].tag == kEmptyTag)
            s.fail("btb record is empty");
        },
        "btb entry");
    s.io(stats_.cond_lookups);
    s.io(stats_.cond_mispredicts);
    s.io(stats_.btb_misses);
  }

 private:
  std::vector<std::uint8_t> counters_;  ///< 2-bit saturating, init weakly-taken
  static constexpr std::uint64_t kEmptyTag = ~0ull;  ///< matches no pc
  struct BtbEntry {
    std::uint64_t tag = kEmptyTag;
    std::uint64_t target = 0;
  };
  std::vector<BtbEntry> btb_;
  std::size_t mask_;
  std::size_t btb_mask_;
  PredictorStats stats_;
};

}  // namespace csmt::branch
