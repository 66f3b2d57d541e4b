#include "core/cluster.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "ckpt/serializer.hpp"
#include "common/assert.hpp"
#include "core/chip.hpp"

namespace csmt::core {
namespace {

/// Thread states for the per-thread trace tracks. kHalt is terminal: a
/// halted thread's track goes quiet instead of carrying an endless slice.
enum ThreadState : std::uint8_t { kRun = 0, kSyncWait, kStall, kHalt };

/// End of an operand-node chain (nodes are slot * 2 + src index).
constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

const char* thread_state_name(std::uint8_t s) {
  switch (s) {
    case kRun: return "run";
    case kSyncWait: return "sync";
    case kStall: return "stall";
    default: return "halt";
  }
}

}  // namespace

Cluster::Cluster(ClusterId id, const ClusterConfig& cfg, FetchPolicy policy,
                 cache::MemSys& memsys, obs::TraceSink* trace,
                 obs::PhaseProfiler* prof, std::uint32_t trace_pid)
    : id_(id),
      cfg_(cfg),
      policy_(policy),
      memsys_(memsys),
      predictor_(),
      trace_(trace),
      prof_(prof),
      track_{trace_pid, id} {
  CSMT_ASSERT(cfg.width > 0 && cfg.threads > 0 && cfg.rob_entries > 0);
  CSMT_ASSERT_MSG(cfg.rob_entries < kNoUop, "ROB too large for slot indices");
  slots_.resize(cfg.rob_entries);
  free_slots_.reserve(cfg.rob_entries);
  for (std::uint16_t i = cfg.rob_entries; i-- > 0;) free_slots_.push_back(i);
  ready_.reserve(cfg.iq_entries);
  wake_.assign(cfg.rob_entries, WakeState{});
  consumers_.assign(cfg.rob_entries, kNoNode);
  next_node_.assign(2 * std::size_t{cfg.rob_entries}, kNoNode);
  event_link_.assign(cfg.rob_entries, kNoUop);
  std::fill(std::begin(bucket_), std::end(bucket_), kNoUop);
  threads_.reserve(cfg.threads);
  if (trace_) {
    trace_->name_track(track_, "cluster " + std::to_string(id_) + " pipeline");
  }
}

void Cluster::attach_thread(exec::ThreadContext* tc) {
  CSMT_ASSERT(tc != nullptr);
  CSMT_ASSERT_MSG(threads_.size() < cfg_.threads,
                  "cluster hardware contexts exhausted");
  tc->set_unblock_hook(&Cluster::unblock_hook, this);
  ThreadSlot slot;
  slot.tc = tc;
  slot.rob.init(cfg_.rob_entries);
  if (trace_) {
    slot.obs_track = {track_.pid, obs::kThreadTidBase + tc->tid()};
    trace_->name_track(slot.obs_track,
                       "thread " + std::to_string(tc->tid()));
  }
  threads_.push_back(std::move(slot));
  quiet_stall_if_selected_.reserve(threads_.size());
}

bool Cluster::has_free_context() const {
  unsigned bound = 0;
  for (const ThreadSlot& t : threads_) {
    if (t.tc) ++bound;
  }
  return bound < cfg_.threads;
}

void Cluster::freeze_context(unsigned slot, Cycle now) {
  ensure_awake(now);
  CSMT_ASSERT(slot < threads_.size() && threads_[slot].tc);
  threads_[slot].frozen = true;
  active_ = true;  // the fetch fence changes next_event's answer
}

exec::ThreadContext* Cluster::detach_context(unsigned slot, Cycle now) {
  ensure_awake(now);
  CSMT_ASSERT(slot < threads_.size());
  ThreadSlot& t = threads_[slot];
  CSMT_ASSERT_MSG(t.tc && t.window_count == 0,
                  "detach requires a bound, drained context");
  exec::ThreadContext* tc = t.tc;
  tc->set_unblock_hook(nullptr, nullptr);
  if (trace_) {
    if (t.obs_state != kHalt && now > t.obs_since) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, now);
    }
    trace_->instant(t.obs_track, "migrate_out", now);
  }
  // Migration flushes the context's architectural rename state; the drain
  // precondition means there is no in-flight state to flush.
  t.tc = nullptr;
  t.blocked_on = kNoUop;
  t.blocked_gen = 0;
  t.blocked_sync = false;
  t.was_sync_blocked = false;
  t.wake_at = 0;
  for (auto& e : t.int_map) e = RenameEntry{};
  for (auto& e : t.fp_map) e = RenameEntry{};
  t.in_sync = false;
  t.frozen = false;
  active_ = true;
  return tc;
}

unsigned Cluster::attach_migrated(exec::ThreadContext* tc, bool in_sync,
                                  Cycle now, Cycle wake_at) {
  ensure_awake(now);
  CSMT_ASSERT(tc != nullptr);
  tc->set_unblock_hook(&Cluster::unblock_hook, this);
  unsigned slot = static_cast<unsigned>(threads_.size());
  for (unsigned i = 0; i < threads_.size(); ++i) {
    if (!threads_[i].tc) {
      slot = i;
      break;
    }
  }
  if (slot == threads_.size()) {
    CSMT_ASSERT_MSG(threads_.size() < cfg_.threads,
                    "cluster hardware contexts exhausted");
    ThreadSlot fresh;
    fresh.rob.init(cfg_.rob_entries);
    threads_.push_back(std::move(fresh));
    quiet_stall_if_selected_.reserve(threads_.size());
  }
  ThreadSlot& t = threads_[slot];
  t.tc = tc;
  t.wake_at = wake_at;
  // A thread migrated while sync-blocked re-enters the wake protocol here:
  // when the release lands, fetch() charges the sync wake latency on top of
  // whatever migration floor is still in force (the max() above).
  t.was_sync_blocked = tc->sync_blocked();
  t.in_sync = in_sync;
  if (trace_) {
    t.obs_track = {track_.pid, obs::kThreadTidBase + tc->tid()};
    t.obs_state = kStall;  // paying the migration cost until first fetch
    t.obs_since = now;
    trace_->instant(t.obs_track, "migrate_in", now);
  }
  active_ = true;
  return slot;
}

std::uint16_t Cluster::alloc_slot() {
  CSMT_ASSERT(!free_slots_.empty());
  const std::uint16_t idx = free_slots_.back();
  free_slots_.pop_back();
  Uop& u = slots_[idx];
  ++u.gen;  // invalidate stale references from the previous occupant
  u.live = true;
  u.issued = false;
  u.mispredicted = false;
  u.complete_at = kNeverCycle;
  return idx;
}

void Cluster::free_slot(std::uint16_t idx) {
  slots_[idx].live = false;
  free_slots_.push_back(idx);
}

void Cluster::watch_operand(std::uint16_t idx, unsigned k, Cycle now) {
  const Uop& u = slots_[idx];
  const SrcDep& d = u.src[k];
  if (d.producer == kNoUop) return;
  const Uop& p = slots_[d.producer];
  // A dead or recycled slot means the producer already committed.
  if (!p.live || p.gen != d.gen) return;
  if (p.issued && p.complete_at <= now) return;
  const std::uint32_t node = 2u * idx + k;
  const bool arm_now = p.issued && consumers_[d.producer] == kNoNode;
  next_node_[node] = consumers_[d.producer];
  consumers_[d.producer] = node;
  if (arm_now) arm(d.producer);
  WakeState& w = wake_[idx];
  w.waiting |= static_cast<std::uint8_t>(1u << k);
  w.cls[k] = u.sync ? Slot::kSync
                    : d.producer_is_load ? Slot::kMemory : Slot::kData;
}

void Cluster::enter_iq(std::uint16_t idx) {
  const WakeState& w = wake_[idx];
  ++iq_size_;
  if (w.waiting) {
    ++blocked_[static_cast<std::size_t>(w.blocked_class())];
  } else {
    ready_.push_back(idx);  // the youngest uop: the list stays age-ordered
  }
}

void Cluster::arm(std::uint16_t producer) {
  const Cycle at = slots_[producer].complete_at;
  if (at == kNeverCycle) {
    event_link_[producer] = recheck_;
    recheck_ = producer;
    return;
  }
  const unsigned b = static_cast<unsigned>(at % kWheel);
  event_link_[producer] = bucket_[b];
  bucket_[b] = producer;
  bucket_bits_ |= std::uint64_t{1} << b;
}

void Cluster::drain_calendar(Cycle now) {
  // Producers armed before their completion cycle was known. A producer
  // that has committed since (its slot is dead; fetch, which could reuse
  // it, runs after issue) fires with the rest.
  std::uint16_t unbound = recheck_;
  recheck_ = kNoUop;
  while (unbound != kNoUop) {
    const std::uint16_t next = event_link_[unbound];
    const Uop& u = slots_[unbound];
    if (u.live && u.complete_at > now) {
      arm(unbound);
    } else {
      fire(unbound);
    }
    unbound = next;
  }
  // next_event() never lets a cluster sleep or skip past an event, so every
  // due event is in this cycle's bucket.
  const unsigned b = static_cast<unsigned>(now % kWheel);
  if (!(bucket_bits_ >> b & 1u)) return;
  std::uint16_t* link = &bucket_[b];
  while (*link != kNoUop) {
    const std::uint16_t p = *link;
    if (slots_[p].complete_at <= now) {
      *link = event_link_[p];
      fire(p);
    } else {
      link = &event_link_[p];  // due a whole wheel turn or more ahead
    }
  }
  if (bucket_[b] == kNoUop) bucket_bits_ &= ~(std::uint64_t{1} << b);
}

void Cluster::fire(std::uint16_t producer) {
  std::uint32_t node = consumers_[producer];
  consumers_[producer] = kNoNode;
  while (node != kNoNode) {
    const std::uint32_t next = next_node_[node];
    satisfy(node);
    node = next;
  }
}

void Cluster::satisfy(std::uint32_t node) {
  const auto idx = static_cast<std::uint16_t>(node >> 1);
  WakeState& w = wake_[idx];
  --blocked_[static_cast<std::size_t>(w.blocked_class())];
  w.waiting &= static_cast<std::uint8_t>(~(1u << (node & 1u)));
  if (w.waiting) {
    ++blocked_[static_cast<std::size_t>(w.blocked_class())];
    return;
  }
  // Woken uops are usually the youngest waiters, so search from the back.
  auto pos = ready_.end();
  while (pos != ready_.begin() && wake_[*(pos - 1)].age > w.age) --pos;
  ready_.insert(pos, idx);
}

bool Cluster::mispredict_blocked(const ThreadSlot& t, Cycle now) const {
  if (t.blocked_on == kNoUop) return false;
  const Uop& u = slots_[t.blocked_on];
  if (!u.live || u.gen != t.blocked_gen) return false;  // committed
  // The branch resolves at complete_at; the redirect consumes one more
  // cycle, so fetching resumes strictly after resolution.
  return !(u.issued && u.complete_at < now);
}

bool Cluster::has_dispatch_room(const ThreadSlot& t) const {
  if (free_slots_.empty() || iq_size_ >= cfg_.iq_entries) return false;
  const isa::Inst& next = t.tc->peek();
  const isa::OpInfo& oi = next.info();
  if (oi.writes_int && next.rd != isa::kRegZero &&
      int_rename_used_ >= cfg_.int_rename)
    return false;
  if (oi.writes_fp && fp_rename_used_ >= cfg_.fp_rename) return false;
  return true;
}

bool Cluster::sync_waiting(const ThreadSlot& t, Cycle now) const {
  return t.tc && (t.tc->sync_blocked() || now < t.wake_at);
}

bool Cluster::fetchable(const ThreadSlot& t, Cycle now) const {
  return t.tc && !t.tc->done() && !t.frozen && !sync_waiting(t, now) &&
         !mispredict_blocked(t, now) && has_dispatch_room(t);
}

void Cluster::tick(Cycle now) {
  const std::uint64_t committed_before =
      stats_.committed_useful + stats_.committed_sync;
  const std::uint64_t fetched_before = stats_.fetched;
  const std::uint64_t issued_before = stats_.issued;
  const std::uint64_t rejected_before = stats_.mem_rejections;
  active_ = false;
  {
    obs::ScopedPhase p(prof_, obs::Phase::kCommit);
    commit(now);
  }
  {
    obs::ScopedPhase p(prof_, obs::Phase::kIssue);
    issue(now);
  }
  {
    obs::ScopedPhase p(prof_, obs::Phase::kFetch);
    fetch(now);
  }
  account(now);
  ++stats_.cycles;
  // Any commit, issue, fetch, memory-system access (accepted or rejected),
  // or sync-wake assignment means next cycle's tick may differ from this
  // one: the cluster is active and must be stepped for real.
  active_ = active_ ||
            committed_before != stats_.committed_useful + stats_.committed_sync ||
            fetched_before != stats_.fetched ||
            issued_before != stats_.issued ||
            rejected_before != stats_.mem_rejections;
  if (trace_) trace_cycle(now, committed_before, fetched_before);
}

Cycle Cluster::next_event(Cycle now) {
  if (active_) return now + 1;
  const Cycle next = now + 1;
  Cycle ev = kNeverCycle;
  const auto consider = [&ev, next](Cycle c) {
    if (c < next) c = next;
    if (c < ev) ev = c;
  };
  for (const ThreadSlot& t : threads_) {
    if (!t.rob.empty()) {
      const Uop& head = slots_[t.rob.front()];
      // The ROB head commits the cycle it completes; younger completions
      // are passive until then (dependents are calendar events below).
      if (head.issued) consider(head.complete_at);
    }
    if (!t.tc || t.tc->done()) continue;
    if (t.tc->sync_blocked()) {
      // Only another cluster's full tick can release this thread, and that
      // tick is active, so the scheduler re-evaluates horizons then. The
      // one self-event is latching was_sync_blocked on the next tick.
      if (!t.was_sync_blocked) return next;
      continue;
    }
    if (t.was_sync_blocked) return next;  // wake_at assignment pending
    if (next < t.wake_at) {
      consider(t.wake_at);  // paying the sync wake latency
      continue;
    }
    if (mispredict_blocked(t, next)) {
      const Uop& b = slots_[t.blocked_on];
      // Fetch resumes the cycle after the branch resolves; an unissued
      // branch is gated by its operands' calendar events.
      if (b.issued) consider(b.complete_at + 1);
      continue;
    }
    // A frozen context cannot fetch; its remaining horizon contributions
    // (ROB-head commit, wake, mispredict resolution) were considered above.
    if (t.frozen) continue;
    if (has_dispatch_room(t)) return next;  // would fetch next cycle
    // No dispatch room: only a commit or issue (events above/below) frees
    // it, so this thread contributes no horizon of its own.
  }
  if (!ready_.empty()) return next;  // an operand-ready uop: full tick
  if (recheck_ != kNoUop) return next;  // completions re-read next tick
  // Every operand readiness flip — which moves the stall histogram even
  // when its uop still cannot issue — is a calendar event, so the earliest
  // one bounds the span. Operands of unissued producers need no horizon:
  // their producer's own issue is a separate event.
  for (std::uint64_t bits = bucket_bits_; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    for (std::uint16_t p = bucket_[b]; p != kNoUop; p = event_link_[p]) {
      consider(slots_[p].complete_at);
    }
  }
  if (ev > next) prime_quiet_plan(now);
  return ev;
}

void Cluster::prime_quiet_plan(Cycle now) {
  // Every predicate below is constant across the whole quiescent span
  // (next_event() ends the span at the first cycle any of them flips), so
  // evaluating at the first skipped cycle stands for all of them.
  const Cycle q = now + 1;
  // issue()'s stall histogram: during a quiescent span every IQ entry is
  // operand-stalled and no operand becomes ready, so the blocked counts
  // are the histogram.
  CSMT_ASSERT_MSG(ready_.empty(), "issuable uop inside a quiescent span");
  std::uint32_t hist[kNumSlots];
  for (std::size_t i = 0; i < kNumSlots; ++i) hist[i] = blocked_[i];
  // account()'s per-thread contributions, plus fetch()'s two dispatch-stall
  // checks (the round-robin "selected thread lacks room" check and the
  // chosen<0 fallback scan).
  quiet_fallback_stall_ = false;
  quiet_stall_if_selected_.assign(threads_.size(), 0);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadSlot& t = threads_[i];
    if (!t.tc || t.tc->done()) continue;
    if (sync_waiting(t, q)) {
      ++hist[static_cast<std::size_t>(Slot::kSync)];
    } else if (mispredict_blocked(t, q)) {
      ++hist[static_cast<std::size_t>(t.blocked_sync ? Slot::kSync
                                                     : Slot::kControl)];
    } else if (t.window_count == 0) {
      ++hist[static_cast<std::size_t>(Slot::kFetch)];
    }
    if (!has_dispatch_room(t)) {
      quiet_stall_if_selected_[i] = 1;
      if (!mispredict_blocked(t, q)) quiet_fallback_stall_ = true;
    }
  }
  // account()'s wasted-slot distribution with zero issues, in both the
  // stalled and unstalled variants. The expressions match account()
  // exactly — the integer counts convert to the same exact doubles the old
  // per-cycle `+= 1.0` accumulation produced — so adding a delta per
  // skipped cycle reproduces the per-cycle accumulator bit for bit.
  const double wasted = static_cast<double>(cfg_.width);
  for (int v = 0; v < 2; ++v) {
    std::uint32_t h[kNumSlots];
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < kNumSlots; ++i) h[i] = hist[i];
    if (v == 1) ++h[static_cast<std::size_t>(Slot::kOther)];
    for (const std::uint32_t x : h) total += x;
    for (std::size_t i = 0; i < kNumSlots; ++i) quiet_delta_[v][i] = 0.0;
    if (total == 0) {
      quiet_delta_[v][static_cast<std::size_t>(Slot::kFetch)] = wasted;
    } else {
      for (std::size_t i = 0; i < kNumSlots; ++i) {
        quiet_delta_[v][i] = wasted * static_cast<double>(h[i]) /
                             static_cast<double>(total);
      }
    }
  }
}

void Cluster::quiet_tick(Cycle now) {
  bool stalled = quiet_fallback_stall_;
  if (!threads_.empty()) {
    if (policy_ == FetchPolicy::kRoundRobin) {
      // Strict RR burns a turn on the first live thread even when stalled;
      // replay the pointer rotation (the other policies only move it on a
      // successful fetch, which a quiescent span excludes).
      const unsigned n = static_cast<unsigned>(threads_.size());
      for (unsigned k = 0; k < n; ++k) {
        const unsigned cand = (fetch_rr_ + k) % n;
        const ThreadSlot& t = threads_[cand];
        if (t.tc && !t.tc->done()) {
          fetch_rr_ = cand + 1;
          if (quiet_stall_if_selected_[cand]) stalled = true;
          break;
        }
      }
    }
    ++commit_rr_;  // commit() advances its start pointer every cycle
  }
  const double* d = quiet_delta_[stalled ? 1 : 0];
  for (std::size_t i = 0; i < kNumSlots; ++i) stats_.slots.slots[i] += d[i];
  if (stalled) ++stats_.dispatch_stall_cycles;
  ++stats_.cycles;
  if (trace_ && stalled) trace_->instant(track_, "dispatch_stall", now);
}

bool Cluster::try_sleep(Cycle now) {
  // Probe deferral mirrors the machine-level scheduler (DESIGN.md §9): a
  // failed probe (horizon at now+1) doubles the number of inactive ticks
  // the next probe waits for, so busy clusters with 1-cycle gaps do not pay
  // the O(window) horizon walk every gap.
  if (++idle_streak_ <= sleep_defer_) return false;
  idle_streak_ = 0;
  const Cycle h = next_event(now);
  if (h <= now + 1) {
    sleep_defer_ = sleep_defer_ == 0 ? 1 : std::min<Cycle>(sleep_defer_ * 2, 64);
    return false;
  }
  // next_event primed the quiet plan for (now, h); it stays valid for the
  // whole sleep because nothing internal can change and every external
  // input (sync unblock, freeze/detach/attach) wakes us first.
  sleep_defer_ = 0;
  asleep_ = true;
  wake_queued_ = false;
  sleep_until_ = h;
  quiet_from_ = now + 1;
  return true;
}

void Cluster::settle(Cycle upto) {
  // Per-cycle replay, never closed form: the slot accumulators are doubles
  // and bit-identity requires the exact same sequence of additions the
  // per-cycle kernel performs.
  while (quiet_from_ < upto) {
    quiet_tick(quiet_from_);
    ++quiet_from_;
    ++lazy_replayed_;
  }
}

void Cluster::wake(Cycle now) {
  settle(now);
  asleep_ = false;
  wake_queued_ = false;
  idle_streak_ = 0;
}

void Cluster::ensure_awake(Cycle now) {
  if (!asleep_) return;
  wake(now);
  if (chip_) chip_->notify_woken(this);
}

void Cluster::unblock_hook(void* ctx, exec::ThreadContext* /*tc*/) {
  Cluster* c = static_cast<Cluster*>(ctx);
  if (c->asleep_ && c->chip_) c->chip_->signal_wake(c);
}

std::uint8_t Cluster::thread_state(const ThreadSlot& t, Cycle now) const {
  if (!t.tc || t.tc->done()) return kHalt;
  if (sync_waiting(t, now)) return kSyncWait;
  if (mispredict_blocked(t, now) || t.window_count == 0) return kStall;
  return kRun;
}

void Cluster::trace_cycle(Cycle now, std::uint64_t committed_before,
                          std::uint64_t fetched_before) {
  const std::uint64_t committed =
      stats_.committed_useful + stats_.committed_sync - committed_before;
  const std::uint64_t fetched = stats_.fetched - fetched_before;
  const unsigned issued = issued_useful_ + issued_sync_;
  if (fetched) {
    trace_->instant(track_, "fetch", now,
                    static_cast<std::int64_t>(fetched));
  }
  if (issued) {
    trace_->instant(track_, "issue", now, static_cast<std::int64_t>(issued));
  }
  if (committed) {
    trace_->instant(track_, "commit", now,
                    static_cast<std::int64_t>(committed));
  }
  if (dispatch_stalled_) trace_->instant(track_, "dispatch_stall", now);

  // Per-thread run/sync/stall/halt slices: emit the previous slice when the
  // state changes (so an unchanged state costs one compare per thread).
  for (ThreadSlot& t : threads_) {
    const std::uint8_t st = thread_state(t, now);
    if (st == t.obs_state) continue;
    if (now > t.obs_since && t.obs_state != kHalt) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, now);
    }
    if (st == kHalt) trace_->instant(t.obs_track, "halt", now);
    t.obs_state = st;
    t.obs_since = now;
  }
}

void Cluster::trace_flush(Cycle end) {
  if (!trace_) return;
  for (ThreadSlot& t : threads_) {
    if (t.obs_state != kHalt && end > t.obs_since) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, end);
      t.obs_since = end;
    }
  }
}

void Cluster::commit(Cycle now) {
  if (threads_.empty()) return;
  const unsigned n = static_cast<unsigned>(threads_.size());
  unsigned budget = cfg_.width;
  const unsigned start = commit_rr_++ % n;
  for (unsigned k = 0; k < n && budget > 0; ++k) {
    ThreadSlot& t = threads_[(start + k) % n];
    while (budget > 0 && !t.rob.empty()) {
      const std::uint16_t idx = t.rob.front();
      Uop& u = slots_[idx];
      if (!u.issued || u.complete_at > now) break;
      if (u.holds_int_rename) --int_rename_used_;
      if (u.holds_fp_rename) --fp_rename_used_;
      if (u.sync) {
        ++stats_.committed_sync;
      } else {
        ++stats_.committed_useful;
      }
      t.rob.pop_front();
      --t.window_count;
      free_slot(idx);
      --budget;
    }
  }
}

void Cluster::issue(Cycle now) {
  drain_calendar(now);
  // Operand-blocked uops enter the histogram by class count; only the
  // ready ones are walked.
  for (std::size_t i = 0; i < kNumSlots; ++i) cycle_hist_[i] = blocked_[i];
  issued_useful_ = 0;
  issued_sync_ = 0;
  dispatch_stalled_ = false;

  unsigned fu_used[3] = {0, 0, 0};  // kInt, kLdSt, kFp
  const unsigned fu_limit[3] = {cfg_.int_units, cfg_.ldst_units,
                                cfg_.fp_units};
  unsigned width_used = 0;

  // Ready uops that cannot issue are compacted toward the front of ready_
  // in place: the write cursor never passes the read cursor, so no scratch
  // vector — and no per-cycle allocation — is needed. The walk is oldest
  // first, so width, FU and memory-system arbitration (and the order of
  // memory-system accesses) are those of a scan over the whole IQ.
  std::size_t kept = 0;

  for (const std::uint16_t idx : ready_) {
    Uop& u = slots_[idx];
    auto stall = [&](Slot s) {
      ++cycle_hist_[static_cast<std::size_t>(u.sync ? Slot::kSync : s)];
      ready_[kept++] = idx;
    };

    // Issue bandwidth and functional units (structural hazards).
    if (width_used >= cfg_.width) {
      stall(Slot::kStructural);
      continue;
    }
    if (u.fu != isa::FuClass::kNone) {
      const auto fc = static_cast<std::size_t>(u.fu);
      if (fu_used[fc] >= fu_limit[fc]) {
        stall(Slot::kStructural);
        continue;
      }
      // Memory ops must additionally be accepted by the hierarchy (free
      // bank, free MSHR) — rejection is the paper's memory hazard.
      if (u.is_load || u.is_store) {
        const Cycle arrival = now + 1;
        const Addr addr = u.dyn.mem_addr +
                          threads_[u.hw_thread].tc->timing_addr_offset();
        cache::AccessResult r;
        if (u.is_atomic) {
          r = memsys_.atomic(addr, arrival, id_);
        } else if (u.is_store) {
          r = memsys_.store(addr, arrival, id_);
        } else {
          r = memsys_.load(addr, arrival, id_);
        }
        if (!r.accepted) {
          ++stats_.mem_rejections;
          stall(Slot::kMemory);
          continue;
        }
        u.complete_at =
            u.is_store && !u.is_atomic ? now + u.latency : r.done;
        if (r.pending != cache::kNoPendingAccess &&
            u.complete_at == kNeverCycle) {
          // Deferred fetch: the completion cycle is computed at the cycle
          // barrier. slots_ never reallocates, so the pointer is stable for
          // the (same-cycle) lifetime of the pending record.
          memsys_.bind_pending(r.pending, &u.complete_at);
        }
      } else {
        u.complete_at = now + u.latency;
      }
      ++fu_used[fc];
    } else {
      u.complete_at = now + u.latency;
    }

    u.issued = true;
    --iq_size_;
    // Every latency is at least one cycle, so no consumer woken here can
    // become ready within this walk.
    if (consumers_[idx] != kNoNode) arm(idx);
    ++width_used;
    ++stats_.issued;
    if (u.sync) {
      ++issued_sync_;
    } else {
      ++issued_useful_;
    }
  }
  ready_.resize(kept);
}

void Cluster::fetch(Cycle now) {
  if (threads_.empty()) return;
  const unsigned n = static_cast<unsigned>(threads_.size());

  // Clear expired mispredict blocks; track sync wakeups (a woken thread
  // pays sync_wake_latency — the re-read of the sync line — before its
  // first fetch).
  for (ThreadSlot& t : threads_) {
    if (t.blocked_on != kNoUop && !mispredict_blocked(t, now)) {
      t.blocked_on = kNoUop;
      t.blocked_sync = false;
    }
    if (!t.tc) continue;
    if (t.tc->sync_blocked()) {
      t.was_sync_blocked = true;
    } else if (t.was_sync_blocked) {
      t.was_sync_blocked = false;
      // max(): a thread released while paying a migration wake floor keeps
      // the later of the two. Without migrations the old wake_at was
      // assigned at an earlier `now`, so the max is always the new value —
      // bit-identical to the historical unconditional assignment.
      t.wake_at = std::max(t.wake_at, now + cfg_.sync_wake_latency);
      active_ = true;  // wake horizon changed: recompute next_event
    }
  }

  int chosen = -1;
  switch (policy_) {
    case FetchPolicy::kRoundRobin: {
      // Strict RR over live threads; a stalled thread wastes its turn.
      for (unsigned k = 0; k < n; ++k) {
        const unsigned cand = (fetch_rr_ + k) % n;
        ThreadSlot& t = threads_[cand];
        if (t.tc && !t.tc->done()) {
          fetch_rr_ = cand + 1;
          if (fetchable(t, now)) chosen = static_cast<int>(cand);
          else if (!has_dispatch_room(t)) dispatch_stalled_ = true;
          break;
        }
      }
      break;
    }
    case FetchPolicy::kRoundRobinSkip: {
      for (unsigned k = 0; k < n; ++k) {
        const unsigned cand = (fetch_rr_ + k) % n;
        if (fetchable(threads_[cand], now)) {
          chosen = static_cast<int>(cand);
          fetch_rr_ = cand + 1;
          break;
        }
      }
      break;
    }
    case FetchPolicy::kIcount: {
      unsigned best = ~0u;
      for (unsigned k = 0; k < n; ++k) {
        const unsigned cand = (fetch_rr_ + k) % n;
        const ThreadSlot& t = threads_[cand];
        if (fetchable(t, now) && t.window_count < best) {
          best = t.window_count;
          chosen = static_cast<int>(cand);
        }
      }
      if (chosen >= 0) fetch_rr_ = static_cast<unsigned>(chosen) + 1;
      break;
    }
  }

  if (chosen < 0) {
    // Nobody could fetch; if some live thread was resource-blocked, that is
    // a dispatch stall (lack of window/rename space -> `other`).
    for (const ThreadSlot& t : threads_) {
      if (t.tc && !t.tc->done() && !mispredict_blocked(t, now) &&
          !has_dispatch_room(t)) {
        dispatch_stalled_ = true;
        break;
      }
    }
    return;
  }

  ThreadSlot& t = threads_[static_cast<unsigned>(chosen)];
  exec::ThreadContext& tc = *t.tc;
  tc.set_defer(defer_);

  for (unsigned i = 0; i < cfg_.width; ++i) {
    if (tc.done()) break;
    const isa::Inst& next = tc.peek();
    const isa::OpInfo& oi = next.info();
    const bool needs_int_rename = oi.writes_int && next.rd != isa::kRegZero;

    if (free_slots_.empty() || iq_size_ >= cfg_.iq_entries ||
        (needs_int_rename && int_rename_used_ >= cfg_.int_rename) ||
        (oi.writes_fp && fp_rename_used_ >= cfg_.fp_rename)) {
      dispatch_stalled_ = true;
      break;
    }

    const std::uint16_t idx = alloc_slot();
    Uop& u = slots_[idx];
    const bool stepped = tc.step(u.dyn);
    CSMT_ASSERT(stepped);
    u.hw_thread = static_cast<unsigned>(chosen);
    u.dispatched_at = now;
    // Cache the decode-derived hot bits: the issue stage reads them when
    // it classifies and arbitrates, so they must not cost a pointer chase
    // through dyn.inst each time.
    u.fu = oi.fu;
    u.latency = oi.latency;
    u.is_load = oi.is_load;
    u.is_store = oi.is_store;
    u.is_atomic = oi.is_atomic;
    u.sync = u.dyn.sync_tagged();

    // Capture source dependences from the rename maps (before the dest map
    // update, so "add r1, r1, r2" reads the previous writer of r1).
    // Written field by field: returning the SrcDep by value compiled to a
    // stack temporary whose copy-back stalled on store forwarding.
    auto capture = [&](SrcDep& d, bool rd_int, bool rd_fp, isa::RegIdx r) {
      const RenameEntry* e = nullptr;
      if (rd_int) {
        if (r != isa::kRegZero) e = &t.int_map[r];
      } else if (rd_fp) {
        e = &t.fp_map[r];
      }
      d.producer = e ? e->producer : kNoUop;
      d.gen = e ? e->gen : 0;
      d.producer_is_load = e && e->is_load;
    };
    capture(u.src[0], oi.reads_int1, oi.reads_fp1, u.dyn.inst->rs1);
    capture(u.src[1], oi.reads_int2, oi.reads_fp2, u.dyn.inst->rs2);

    u.holds_int_rename = needs_int_rename;
    u.holds_fp_rename = oi.writes_fp;
    if (needs_int_rename) {
      ++int_rename_used_;
      t.int_map[u.dyn.inst->rd] = {idx, u.gen, oi.is_load};
    }
    if (oi.writes_fp) {
      ++fp_rename_used_;
      t.fp_map[u.dyn.inst->rd] = {idx, u.gen, oi.is_load};
    }

    // Field by field too (watch_operand() sets cls[k] with each waiting
    // bit): an aggregate store here compiled the same way.
    wake_[idx].age = next_age_++;
    wake_[idx].waiting = 0;
    watch_operand(idx, 0, now);
    watch_operand(idx, 1, now);

    t.rob.push_back(idx);
    ++t.window_count;
    enter_iq(idx);
    t.in_sync = u.sync;
    ++stats_.fetched;

    if (oi.is_cond_branch) {
      const bool correct = predictor_.predict_and_update(
          u.dyn.pc, u.dyn.branch_taken, u.dyn.next_pc);
      if (!correct) {
        u.mispredicted = true;
        t.blocked_on = idx;
        t.blocked_gen = u.gen;
        t.blocked_sync = u.sync;
        break;  // fetch stalls until the branch resolves
      }
      // Correctly predicted (direction + BTB target): the fetch unit keeps
      // following the predicted path within the packet, like Tullsen's
      // 8-instruction-per-thread fetch (§3.2). Unconditional jumps have
      // static targets and never break the packet either.
    }
    if (oi.is_halt) break;
    if (tc.sync_blocked()) break;  // entered a sync primitive and blocked
    if (tc.defer_break()) break;   // deferred op: result lands at the barrier
  }
}

void Cluster::account(Cycle now) {
  // Per-thread fetch/control contributions: a live thread with an empty
  // window either could not be fetched (fetch hazard) or is squashing after
  // a misprediction (control hazard).
  last_running_ = 0;
  for (const ThreadSlot& t : threads_) {
    if (!t.tc || t.tc->done()) continue;
    if (sync_waiting(t, now)) {
      // Blocked in (or waking from) a lock/barrier: the paper's sync slots.
      ++cycle_hist_[static_cast<std::size_t>(Slot::kSync)];
      continue;
    }
    if (mispredict_blocked(t, now)) {
      ++cycle_hist_[static_cast<std::size_t>(t.blocked_sync ? Slot::kSync
                                                            : Slot::kControl)];
    } else if (t.window_count == 0) {
      ++cycle_hist_[static_cast<std::size_t>(Slot::kFetch)];
    }
    if (!t.in_sync) ++last_running_;
  }
  if (dispatch_stalled_) {
    ++cycle_hist_[static_cast<std::size_t>(Slot::kOther)];
    ++stats_.dispatch_stall_cycles;
  }

  SlotStats& s = stats_.slots;
  s[Slot::kUseful] += issued_useful_;
  s[Slot::kSync] += issued_sync_;
  const double wasted =
      static_cast<double>(cfg_.width) - issued_useful_ - issued_sync_;
  if (wasted <= 0) return;

  // The histogram holds small event counts; converting them to double here
  // is exact, so the proportional split below matches the old floating-
  // point accumulation bit for bit.
  std::uint32_t total = 0;
  for (const std::uint32_t h : cycle_hist_) total += h;
  if (total == 0) {
    // Empty window and nothing blocked: lack of instructions to run.
    s[Slot::kFetch] += wasted;
    return;
  }
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    s.slots[i] += wasted * static_cast<double>(cycle_hist_[i]) /
                  static_cast<double>(total);
  }
}

bool Cluster::finished() const {
  for (const ThreadSlot& t : threads_) {
    if (!t.tc) continue;
    if (!t.tc->done() || t.window_count > 0) return false;
  }
  return true;
}

unsigned Cluster::running_threads() const { return last_running_; }


std::string Cluster::debug_dump(Cycle now) const {
  std::string out = "cluster " + std::to_string(id_) + " iq=" +
                    std::to_string(iq_size_) +
                    " int_ren=" + std::to_string(int_rename_used_) +
                    " fp_ren=" + std::to_string(fp_rename_used_) + "\n";
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadSlot& t = threads_[i];
    out += "  t" + std::to_string(i) + " done=" +
           std::to_string(t.tc ? t.tc->done() : -1) +
           " pc=" + std::to_string(t.tc ? t.tc->pc() : 0) +
           " win=" + std::to_string(t.window_count) +
           " blocked=" + std::to_string(mispredict_blocked(t, now)) +
           " insync=" + std::to_string(t.in_sync) + "\n";
    if (!t.rob.empty()) {
      const Uop& u = slots_[t.rob.front()];
      out += "    rob-head: pc=" + std::to_string(u.dyn.pc) +
             " op=" + std::string(isa::op_name(u.dyn.inst->op)) +
             " issued=" + std::to_string(u.issued) +
             " complete_at=" + std::to_string(u.complete_at) + "\n";
    }
  }
  return out;
}

std::vector<std::uint16_t> Cluster::iq_order() const {
  std::vector<std::uint16_t> iq;
  iq.reserve(iq_size_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live && !slots_[i].issued) {
      iq.push_back(static_cast<std::uint16_t>(i));
    }
  }
  std::sort(iq.begin(), iq.end(), [this](std::uint16_t a, std::uint16_t b) {
    return wake_[a].age < wake_[b].age;
  });
  return iq;
}

void Cluster::rebuild_issue_state(const std::vector<std::uint16_t>& iq,
                                  ckpt::Serializer& s) {
  iq_size_ = 0;
  next_age_ = 0;
  ready_.clear();
  std::fill(consumers_.begin(), consumers_.end(), kNoNode);
  std::fill(std::begin(bucket_), std::end(bucket_), kNoUop);
  bucket_bits_ = 0;
  recheck_ = kNoUop;
  for (std::uint32_t& b : blocked_) b = 0;
  std::size_t in_flight = 0;
  for (Uop& u : slots_) {
    for (SrcDep& d : u.src) {
      if (d.producer != kNoUop && d.producer >= slots_.size()) {
        s.fail("uop source names a slot beyond the window");
        d.producer = kNoUop;
      }
    }
    if (u.live && !u.issued) ++in_flight;
  }
  std::vector<char> seen(slots_.size(), 0);
  for (const std::uint16_t idx : iq) {
    if (idx >= slots_.size() || seen[idx] || !slots_[idx].live ||
        slots_[idx].issued) {
      s.fail("iq entry is not a distinct waiting uop");
      return;
    }
    seen[idx] = 1;
  }
  if (iq.size() != in_flight) {
    s.fail("iq does not list every waiting uop");
    return;
  }
  for (const std::uint16_t idx : iq) {
    wake_[idx].age = next_age_++;
    wake_[idx].waiting = 0;
    watch_operand(idx, 0, 0);
    watch_operand(idx, 1, 0);
    enter_iq(idx);
  }
  // The restored clock is unknown here, so every armed producer is
  // re-read by the first tick, which fires the past-due ones before it
  // walks the ready list (no horizon is asked for before that tick).
  for (std::uint16_t& head : bucket_) {
    while (head != kNoUop) {
      const std::uint16_t p = head;
      head = event_link_[p];
      event_link_[p] = recheck_;
      recheck_ = p;
    }
  }
  bucket_bits_ = 0;
}

IssueAudit Cluster::audit_issue(Cycle now) const {
  IssueAudit a;
  auto fail = [&a](const std::string& msg) {
    if (a.error.empty()) a.error = msg;
  };
  const std::vector<std::uint16_t> iq = iq_order();
  a.waiting_uops = static_cast<unsigned>(iq.size());
  if (iq.size() != iq_size_) fail("iq size counter out of step");

  // Which producer's chain each operand node is on (kNoUop: none), and
  // which producers are in the calendar.
  std::vector<std::uint16_t> chained_to(next_node_.size(), kNoUop);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    for (std::uint32_t n = consumers_[p]; n != kNoNode; n = next_node_[n]) {
      if (chained_to[n] != kNoUop) {
        fail("operand node chained twice");
        return a;
      }
      chained_to[n] = static_cast<std::uint16_t>(p);
    }
  }
  std::vector<char> armed(slots_.size(), 0);
  for (unsigned b = 0; b < kWheel; ++b) {
    if ((bucket_[b] != kNoUop) != ((bucket_bits_ >> b & 1u) != 0)) {
      fail("bucket bitmap out of step");
    }
    for (std::uint16_t p = bucket_[b]; p != kNoUop; p = event_link_[p]) {
      if (armed[p]++) {
        fail("producer armed twice");
        return a;
      }
      const Cycle at = slots_[p].complete_at;
      if (at == kNeverCycle || at % kWheel != b) {
        fail("event in the wrong bucket");
      }
      if (at <= now) fail("calendar event due but not fired");
    }
  }
  for (std::uint16_t p = recheck_; p != kNoUop; p = event_link_[p]) {
    if (armed[p]++) {
      fail("producer armed twice");
      return a;
    }
    ++a.unbound;
  }
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    const bool chain = consumers_[p] != kNoNode;
    const Uop& u = slots_[p];
    if (chain && !u.live) fail("consumer chain on a dead slot");
    if (chain != (armed[p] != 0) && u.issued) {
      fail("an in-flight producer's chain is not in the calendar");
    }
    if (armed[p] && !u.issued) fail("an unissued producer is armed");
  }

  std::vector<std::uint16_t> ready;
  unsigned registered = 0;
  for (const std::uint16_t idx : iq) {
    const Uop& u = slots_[idx];
    std::uint8_t mask = 0;
    for (unsigned k = 0; k < 2; ++k) {
      const SrcDep& d = u.src[k];
      const std::uint32_t node = 2u * idx + k;
      bool ready_now = d.producer == kNoUop;
      if (!ready_now) {
        const Uop& p = slots_[d.producer];
        if (p.live && p.gen != d.gen) ++a.recycled;
        ready_now = !p.live || p.gen != d.gen ||
                    (p.issued && p.complete_at <= now);
        if (!ready_now) {
          ++(p.issued ? a.on_inflight : a.on_unissued);
          if (chained_to[node] != d.producer) {
            fail("unready operand is not on its producer's chain");
          }
        }
      }
      if (ready_now) {
        if (chained_to[node] != kNoUop) fail("ready operand still chained");
      } else {
        mask |= static_cast<std::uint8_t>(1u << k);
        ++registered;
      }
    }
    if (mask != wake_[idx].waiting) fail("operand readiness out of step");
    if (mask == 0) {
      ready.push_back(idx);
    } else {
      // §4.1 order: the sync tag, then the first unready operand's hazard.
      const SrcDep& first = u.src[(mask & 1u) ? 0 : 1];
      const Slot cls = u.sync ? Slot::kSync
                       : first.producer_is_load ? Slot::kMemory
                                                : Slot::kData;
      if (cls != wake_[idx].blocked_class()) fail("stall class out of step");
      ++a.blocked[static_cast<std::size_t>(cls)];
    }
  }
  const auto chained = static_cast<unsigned>(
      std::count_if(chained_to.begin(), chained_to.end(),
                    [](std::uint16_t p) { return p != kNoUop; }));
  if (chained != registered) fail("operand chained for no waiting operand");
  a.ready = static_cast<unsigned>(ready.size());
  if (ready != ready_) fail("ready list is not the operand-ready uops by age");
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    if (a.blocked[i] != blocked_[i]) fail("blocked counts out of step");
  }
  return a;
}

void Cluster::serialize(ckpt::Serializer& s,
                        const std::vector<exec::ThreadContext*>& by_tid) {
  // Shape first: a checkpoint for a differently configured cluster must be
  // refused before any state is applied.
  s.check(slots_.size(), "cluster rob entries");

  // Context layout travels as data, not shape: with dynamic allocation the
  // saved slot count and thread bindings can differ from the startup
  // placement, so the loader rebuilds the slot array from the file.
  {
    std::uint64_t n = threads_.size();
    s.io(n);
    if (s.loading()) {
      if (!s.bounded_count(n) || n > cfg_.threads) {
        s.fail("cluster context count exceeds hardware contexts");
        n = 0;
      }
      threads_.assign(static_cast<std::size_t>(n), ThreadSlot{});
      quiet_stall_if_selected_.reserve(threads_.size());
    }
  }

  for (auto& t : threads_) {
    // Binding: tid + 1, with 0 for an empty (detached) slot.
    std::uint64_t tid1 = t.tc ? t.tc->tid() + 1ull : 0;
    s.io(tid1);
    if (s.loading()) {
      t.tc = nullptr;
      if (tid1 != 0) {
        const std::uint64_t tid = tid1 - 1;
        if (tid < by_tid.size() && by_tid[static_cast<std::size_t>(tid)]) {
          t.tc = by_tid[static_cast<std::size_t>(tid)];
          // Rebind the unblock hook to the restored layout (the startup
          // binding from place_initial may point at a different cluster).
          t.tc->set_unblock_hook(&Cluster::unblock_hook, this);
        } else {
          s.fail("cluster context bound to an unknown thread");
        }
      }
      t.rob.init(cfg_.rob_entries);
      if (trace_ && t.tc) {
        t.obs_track = {track_.pid, obs::kThreadTidBase + t.tc->tid()};
      }
    }
    s.io(t.blocked_on);
    s.io(t.blocked_gen);
    s.io(t.blocked_sync);
    s.io(t.was_sync_blocked);
    s.io(t.wake_at);
    s.io(t.frozen);
    for (auto& e : t.int_map) {
      s.io(e.producer);
      s.io(e.gen);
      s.io(e.is_load);
    }
    for (auto& e : t.fp_map) {
      s.io(e.producer);
      s.io(e.gen);
      s.io(e.is_load);
    }
    s.io(t.window_count);
    s.io(t.in_sync);
    t.rob.serialize(s);
    s.io(t.obs_state);
    s.io(t.obs_since);
  }

  for (auto& u : slots_) {
    // DynInst: every field but the static-instruction pointer, which is
    // rebuilt below from the static index (dyn.pc) via the owning thread's
    // program — pointers never touch the file.
    s.io(u.dyn.seq);
    s.io(u.dyn.tid);
    s.io(u.dyn.pc);
    s.io(u.dyn.next_pc);
    s.io(u.dyn.mem_addr);
    s.io(u.dyn.branch_taken);
    s.io(u.gen);
    s.io(u.hw_thread);
    s.io(u.dispatched_at);
    s.io(u.complete_at);
    for (auto& d : u.src) {
      s.io(d.producer);
      s.io(d.gen);
      s.io(d.producer_is_load);
    }
    s.io(u.fu);
    s.io(u.latency);
    s.io(u.is_load);
    s.io(u.is_store);
    s.io(u.is_atomic);
    s.io(u.sync);
    s.io(u.live);
    s.io(u.issued);
    s.io(u.holds_int_rename);
    s.io(u.holds_fp_rename);
    s.io(u.mispredicted);
    if (s.loading()) {
      u.dyn.inst = nullptr;
      if (u.live) {
        if (u.hw_thread >= threads_.size() || !threads_[u.hw_thread].tc) {
          s.fail("uop bound to a missing hardware thread");
        } else {
          const isa::Program& prog = threads_[u.hw_thread].tc->program();
          if (u.dyn.pc >= prog.size()) {
            s.fail("in-flight uop pc beyond program end");
            u.live = false;
          } else {
            u.dyn.inst = &prog.at(u.dyn.pc);
          }
        }
      }
    }
  }

  {
    std::uint64_t n = free_slots_.size();
    s.io(n);
    if (s.loading()) {
      if (!s.bounded_count(n) || n > slots_.size()) {
        s.fail("free list larger than the slot array");
        free_slots_.clear();
      } else {
        free_slots_.resize(static_cast<std::size_t>(n));
      }
    }
    for (auto& v : free_slots_) s.io(v);
  }
  {
    // The IQ travels as its waiting uops oldest first; the wakeup state is
    // derived from it and the slot array.
    std::vector<std::uint16_t> iq;
    if (!s.loading()) iq = iq_order();
    std::uint64_t n = iq.size();
    s.io(n);
    if (s.loading()) {
      if (!s.bounded_count(n) || n > cfg_.iq_entries) {
        s.fail("iq larger than configured");
        n = 0;
      }
      iq.resize(static_cast<std::size_t>(n));
    }
    for (auto& v : iq) s.io(v);
    if (s.loading()) rebuild_issue_state(iq, s);
  }

  s.io(int_rename_used_);
  s.io(fp_rename_used_);
  s.io(fetch_rr_);
  s.io(commit_rr_);
  s.io(last_running_);

  for (auto& v : cycle_hist_) s.io(v);
  s.io(issued_useful_);
  s.io(issued_sync_);
  s.io(dispatch_stalled_);

  s.io(active_);
  for (auto& row : quiet_delta_) {
    for (auto& v : row) s.io(v);
  }
  s.io(quiet_fallback_stall_);
  {
    std::uint64_t n = quiet_stall_if_selected_.size();
    s.io(n);
    if (s.loading()) {
      if (!s.bounded_count(n) || n > threads_.size()) {
        s.fail("quiet plan larger than the thread count");
        quiet_stall_if_selected_.clear();
      } else {
        quiet_stall_if_selected_.resize(static_cast<std::size_t>(n));
      }
    }
    for (auto& v : quiet_stall_if_selected_) s.io(v);
  }

  stats_.slots.serialize(s);
  s.io(stats_.cycles);
  s.io(stats_.fetched);
  s.io(stats_.issued);
  s.io(stats_.committed_useful);
  s.io(stats_.committed_sync);
  s.io(stats_.mem_rejections);
  s.io(stats_.dispatch_stall_cycles);
  predictor_.serialize(s);
}

}  // namespace csmt::core
