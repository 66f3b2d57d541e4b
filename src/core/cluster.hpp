// Cluster: one SMT core of the clustered architecture (§3.2/§3.3).
//
// A cluster owns a fetch unit (round-robin over its hardware threads, one
// thread per cycle, up to `width` instructions), private renaming-register
// pools, a unified out-of-order instruction queue, per-thread in-order
// commit through a shared reorder buffer, and a private set of functional
// units (Table 2). No resources are shared across clusters; the chip's
// caches are shared (§3.4).
//
// The pipeline is execution-driven: the functional front end resolves each
// instruction at fetch, so the timing model sees actual branch outcomes and
// effective addresses (MINT-style, §4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "branch/predictor.hpp"
#include "cache/memsys.hpp"
#include "common/types.hpp"
#include "core/arch_config.hpp"
#include "core/hazards.hpp"
#include "exec/thread_context.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::ckpt {
class Serializer;
}

namespace csmt::core {

class Chip;

inline constexpr std::uint16_t kNoUop = 0xFFFF;

/// A source dependence captured at dispatch: either a reference to the
/// producing in-flight uop (generation-tagged, so slot reuse is detected),
/// or "ready since `ready`".
struct SrcDep {
  std::uint16_t producer = kNoUop;
  std::uint32_t gen = 0;
  bool producer_is_load = false;
};

/// One in-flight dynamic instruction. The decode-derived fields (`fu`,
/// `latency`, the memory/sync bits) are cached here at dispatch so the
/// issue stage never re-derives them through `dyn.inst`.
struct Uop {
  exec::DynInst dyn;
  std::uint32_t gen = 0;
  unsigned hw_thread = 0;
  Cycle dispatched_at = 0;
  Cycle complete_at = kNeverCycle;
  SrcDep src[2];
  isa::FuClass fu = isa::FuClass::kNone;  ///< cached OpInfo::fu
  std::uint8_t latency = 0;               ///< cached OpInfo::latency
  bool is_load = false;                   ///< cached OpInfo::is_load
  bool is_store = false;                  ///< cached OpInfo::is_store
  bool is_atomic = false;                 ///< cached OpInfo::is_atomic
  bool sync = false;                      ///< cached DynInst::sync_tagged()
  bool live = false;
  bool issued = false;
  bool holds_int_rename = false;
  bool holds_fp_rename = false;
  bool mispredicted = false;
};

/// Brute-force cross-check of the wakeup-driven issue state (a test and
/// debugging aid; see Cluster::audit_issue).
struct IssueAudit {
  std::string error;  ///< first inconsistency found; empty when none
  unsigned waiting_uops = 0;  ///< uops in the IQ
  unsigned ready = 0;         ///< operand-ready uops (lost width/FU/memsys)
  unsigned on_unissued = 0;   ///< operands waiting on an unissued producer
  unsigned on_inflight = 0;   ///< operands waiting on an issued producer
  /// Operands whose producer committed and whose slot holds a newer uop.
  unsigned recycled = 0;
  /// Producers armed before the cycle barrier bound their completion.
  unsigned unbound = 0;
  std::uint32_t blocked[kNumSlots] = {};  ///< operand-blocked uops by class
};

/// Fixed-capacity FIFO of slot indices: the per-thread ROB view. Capacity is
/// bounded by the cluster's ROB size, so after init() no push/pop ever
/// allocates (unlike std::deque, whose block churn shows up on the tick
/// hot path).
class UopFifo {
 public:
  void init(std::size_t capacity) {
    buf_.assign(capacity, 0);
    head_ = 0;
    count_ = 0;
  }
  bool empty() const { return count_ == 0; }
  std::uint16_t front() const { return buf_[head_]; }
  void push_back(std::uint16_t v) {
    std::size_t tail = head_ + count_;
    if (tail >= buf_.size()) tail -= buf_.size();
    buf_[tail] = v;
    ++count_;
  }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) head_ = 0;
    --count_;
  }

  /// Checkpoint visitor (ckpt::Serializer). The ring buffer travels
  /// verbatim (including dead slots — init() zeroed them, so the bytes are
  /// deterministic); capacity is config and only checked.
  template <class Serializer>
  void serialize(Serializer& s) {
    s.check(buf_.size(), "rob capacity");
    for (auto& v : buf_) s.io(v);
    s.io(head_);
    s.io(count_);
    if (s.loading() &&
        (count_ > buf_.size() || (head_ >= buf_.size() && !buf_.empty()))) {
      s.fail("rob cursor out of range");
      head_ = 0;
      count_ = 0;
    }
  }

 private:
  std::vector<std::uint16_t> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

struct ClusterStats {
  SlotStats slots;
  std::uint64_t cycles = 0;
  std::uint64_t fetched = 0;
  std::uint64_t issued = 0;
  std::uint64_t committed_useful = 0;
  std::uint64_t committed_sync = 0;
  std::uint64_t mem_rejections = 0;
  std::uint64_t dispatch_stall_cycles = 0;
};

class Cluster {
 public:
  /// `trace`/`prof` attach observability hooks (nullptr = off);
  /// `trace_pid` is the owning chip's trace process id.
  Cluster(ClusterId id, const ClusterConfig& cfg, FetchPolicy policy,
          cache::MemSys& memsys, obs::TraceSink* trace = nullptr,
          obs::PhaseProfiler* prof = nullptr, std::uint32_t trace_pid = 0);

  /// Binds a software thread to the next free hardware context. At most
  /// `cfg.threads` threads per cluster (Table 2).
  void attach_thread(exec::ThreadContext* tc);

  /// Deferred-mode hookup (multi-chip machines, DESIGN.md §13): the owning
  /// chip's queue for cross-chip-visible functional side effects. The fetch
  /// stage rebinds it on every packet, so threads migrating between chips
  /// always post into the chip that is fetching them.
  void set_defer_queue(exec::DeferQueue* q) { defer_ = q; }

  // --- dynamic allocation surface (csmt::alloc, DESIGN.md §11) ---
  //
  // A migration is freeze -> drain -> detach -> attach_migrated: the
  // controller freezes the source context (fetch stops, in-flight uops keep
  // issuing and committing), waits for the window to drain, detaches the
  // context (rename maps flushed, slot reusable), and re-binds the thread
  // on the destination cluster with an explicit wake floor that charges the
  // migration cost. All of it runs between full ticks, so the cost model is
  // deterministic. `static` runs never call any of these.

  /// Thread bound to hardware context `slot` (nullptr = empty slot).
  exec::ThreadContext* context_thread(unsigned slot) const {
    return threads_[slot].tc;
  }
  /// True when context `slot` has no in-flight uops (safe to detach).
  bool context_drained(unsigned slot) const {
    return threads_[slot].window_count == 0;
  }
  bool context_frozen(unsigned slot) const { return threads_[slot].frozen; }
  /// Earliest fetch cycle the context is already committed to (sync wake
  /// latency in flight); the migration wake floor must not shorten it.
  Cycle context_wake_at(unsigned slot) const {
    return threads_[slot].wake_at;
  }
  /// The context's sync-spinning latch, carried across a migration so the
  /// running-thread characterization stays consistent.
  bool context_in_sync(unsigned slot) const { return threads_[slot].in_sync; }
  /// True when a migrated thread could bind here (an empty slot exists or a
  /// hardware context is still unused).
  bool has_free_context() const;

  /// Stops fetch for context `slot`; issue/commit continue so the window
  /// drains on its own. `now` settles any pending lazy replay first.
  void freeze_context(unsigned slot, Cycle now);
  /// Unbinds a drained context and returns its thread; the slot's rename
  /// state is flushed and the slot becomes reusable.
  exec::ThreadContext* detach_context(unsigned slot, Cycle now);
  /// Binds a migrated thread to a free context; it fetches no earlier than
  /// `wake_at`. Returns the slot used.
  unsigned attach_migrated(exec::ThreadContext* tc, bool in_sync, Cycle now,
                           Cycle wake_at);

  /// Advances the cluster by one cycle: commit, issue, fetch, then
  /// issue-slot accounting (§4.1). Hot-path contract (DESIGN.md §9): with
  /// tracing off, a tick performs zero heap allocations — every scratch
  /// structure is a pre-sized member.
  void tick(Cycle now);

  /// True when the tick at `now` changed observable state (fetched, issued,
  /// committed, touched the memory system, or started a sync wakeup). An
  /// active cluster must be ticked again next cycle.
  bool active_last_tick() const { return active_; }

  /// Earliest cycle > `now` at which a full tick() could change observable
  /// state, assuming no external input (another cluster waking one of our
  /// sync-blocked threads is external; the scheduler re-evaluates after
  /// every full tick, so such wakes are always observed). kNeverCycle when
  /// nothing in flight can ever make progress on its own. Must be called
  /// right after tick(now); when the horizon is beyond now+1 this also
  /// primes the quiet-tick replay plan for the span (now, horizon).
  Cycle next_event(Cycle now);

  /// Replays the per-cycle accounting of tick(now) for a cycle inside a
  /// quiescent span: the commit/fetch round-robin pointers advance and the
  /// slot/stat accumulators receive bit-identical increments, but no
  /// pipeline work is attempted (none is possible, by construction of
  /// next_event()). Valid only for cycles strictly before the horizon the
  /// last next_event() call returned.
  void quiet_tick(Cycle now);

  /// True when every attached thread has halted and the pipeline is empty.
  bool finished() const;

  // --- component-granular quiescence (DESIGN.md §14) ---
  //
  // A cluster whose horizon is beyond now+1 can go to sleep: the owning
  // chip unlinks it from the per-chip active list and stops ticking it.
  // While asleep the primed quiet plan stays valid (nothing internal can
  // change, and the one external input — a sync unblock — wakes it through
  // the ThreadContext unblock hook), so the skipped cycles are replayed
  // per-cycle by settle() when the cluster next wakes or a stats consumer
  // needs them. Sleep state is transient and never checkpointed: settle()
  // runs before every save, and a restored cluster simply starts awake.

  /// Binds the owning chip for wake notifications (called at chip setup).
  void set_chip(Chip* chip) { chip_ = chip; }

  /// Called by the chip after an inactive tick at `now`: probes the horizon
  /// (with exponential deferral mirroring the machine-level probe backoff)
  /// and falls asleep when it is beyond now+1. Returns true when asleep.
  bool try_sleep(Cycle now);

  /// Replays quiet-tick accounting for all skipped cycles < `upto`. Keeps
  /// the cluster asleep; wake() is settle() plus rejoining the awake world.
  void settle(Cycle upto);

  /// Settles through `now` and marks the cluster awake. The caller (Chip)
  /// relinks it into the active list.
  void wake(Cycle now);

  bool asleep() const { return asleep_; }
  /// The horizon captured when the cluster fell asleep (valid while asleep).
  Cycle sleep_until() const { return sleep_until_; }
  /// Cycles this cluster skipped and lazily replayed (host observability).
  std::uint64_t lazy_replayed() const { return lazy_replayed_; }

  /// Threads currently "running" for the Figure 6 characterization:
  /// attached, not halted, and not inside a sync region.
  unsigned running_threads() const;

  /// Human-readable snapshot of pipeline state (debugging aid).
  std::string debug_dump(Cycle now) const;

  /// Re-derives every waiting uop's operand state at `now` by brute force —
  /// the per-cycle scan of the paper's §4.1 accounting — and compares it
  /// with the incremental wakeup structures: readiness bits, the per-class
  /// blocked counts, the age-ordered ready list, and the placement of every
  /// unready operand on its producer's consumer chain and of every chain
  /// of an issued producer in the calendar.
  /// Valid right after tick(now) or a run that ended at now+1. O(window)
  /// and allocating; never called by the simulator itself.
  IssueAudit audit_issue(Cycle now) const;

  /// Closes the open per-thread state slices at end of run (tracing only).
  void trace_flush(Cycle end);

  /// Checkpoint visitor (DESIGN.md §10): thread slots (rename maps, ROBs,
  /// block/wake state), the in-flight uop array, IQ, free list, round-robin
  /// pointers, quiescence replay plan, and statistics. Context bindings are
  /// recorded as thread ids and rebuilt through `by_tid` on load (dynamic
  /// allocation means the saved layout can differ from the startup one);
  /// in-flight instruction pointers are rebuilt from static indices through
  /// each thread's program.
  void serialize(ckpt::Serializer& s,
                 const std::vector<exec::ThreadContext*>& by_tid);

  const ClusterStats& stats() const { return stats_; }
  const branch::PredictorStats& predictor_stats() const {
    return predictor_.stats();
  }
  ClusterId id() const { return id_; }
  const ClusterConfig& config() const { return cfg_; }
  unsigned attached_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  friend class Chip;  ///< active-list linkage + sleep bookkeeping

  struct RenameEntry {
    std::uint16_t producer = kNoUop;
    std::uint32_t gen = 0;
    bool is_load = false;
  };

  struct ThreadSlot {
    exec::ThreadContext* tc = nullptr;
    std::uint16_t blocked_on = kNoUop;  ///< unresolved mispredicted branch
    std::uint32_t blocked_gen = 0;
    bool blocked_sync = false;          ///< the blocking branch was sync-tagged
    bool was_sync_blocked = false;      ///< observed blocked last cycle
    Cycle wake_at = 0;                  ///< earliest fetch after a sync wake
    bool frozen = false;                ///< fetch fenced off while draining
    RenameEntry int_map[isa::kNumIntRegs];
    RenameEntry fp_map[isa::kNumFpRegs];
    unsigned window_count = 0;          ///< in-flight uops of this thread
    bool in_sync = false;               ///< last fetched inst was sync-tagged
    UopFifo rob;                        ///< program order (indices into slots_)

    // Tracing-only state (untouched when the sink is null).
    obs::Track obs_track;               ///< this thread's trace track
    std::uint8_t obs_state = 0;         ///< ThreadState of the open slice
    Cycle obs_since = 0;                ///< where the open slice began
  };

  void commit(Cycle now);
  void issue(Cycle now);
  void fetch(Cycle now);
  void account(Cycle now);

  /// Per-cycle trace emission (only called when a sink is attached):
  /// fetch/issue/commit instants on the cluster pipeline track plus
  /// run/sync/stall/halt state slices on each thread's track.
  void trace_cycle(Cycle now, std::uint64_t committed_before,
                   std::uint64_t fetched_before);
  std::uint8_t thread_state(const ThreadSlot& t, Cycle now) const;

  /// Calendar buckets: one per cycle modulo the wheel size. An event due
  /// a whole turn or more ahead shares its bucket and waits its turn.
  static constexpr unsigned kWheel = 64;

  /// Registers operand `k` of the freshly dispatched uop `idx` on its
  /// producer's consumer chain, unless it is ready at `now`; sets the
  /// operand's `waiting` bit if so. The chain of an issued producer is a
  /// calendar event, armed here if this is its first consumer.
  void watch_operand(std::uint16_t idx, unsigned k, Cycle now);
  /// Enters `idx` into the issue stage once its operands are registered:
  /// the ready list or the blocked count of its hazard class.
  void enter_iq(std::uint16_t idx);
  /// Puts issued `producer`'s consumer chain in the calendar at its
  /// completion cycle. A deferred completion is still kNeverCycle until the
  /// cycle barrier binds it, so it goes on the recheck list, re-read at the
  /// next tick.
  void arm(std::uint16_t producer);
  /// Fires every calendar event due at `now`.
  void drain_calendar(Cycle now);
  /// Every operand on `producer`'s consumer chain became ready.
  void fire(std::uint16_t producer);
  /// Operand node `node` (slot * 2 + src) became ready.
  void satisfy(std::uint32_t node);
  /// Per-slot wakeup record, kept apart from Uop so that waking a consumer
  /// touches 16 bytes rather than the uop's cache lines.
  struct WakeState {
    std::uint64_t age = 0;    ///< dispatch order within the cluster
    std::uint8_t waiting = 0;  ///< bit k: src[k] not ready yet
    /// Stall class while src[k] is the first unready operand, in the order
    /// the §4.1 accounting checks it: sync tag, then the operand's hazard
    /// (kMemory behind a load producer, kData otherwise).
    Slot cls[2] = {};
    Slot blocked_class() const { return cls[(waiting & 1u) ? 0 : 1]; }
  };
  /// Waiting uops oldest first (the serialized IQ).
  std::vector<std::uint16_t> iq_order() const;
  /// Rebuilds the derived wakeup state from a restored IQ and slot array.
  void rebuild_issue_state(const std::vector<std::uint16_t>& iq,
                           ckpt::Serializer& s);

  /// True if `t` may fetch this cycle (not done, not sync-blocked or
  /// waking, not mispredict-blocked, room for at least one instruction).
  bool fetchable(const ThreadSlot& t, Cycle now) const;
  /// Thread is inside a sync primitive: blocked, or paying wake latency.
  bool sync_waiting(const ThreadSlot& t, Cycle now) const;
  bool mispredict_blocked(const ThreadSlot& t, Cycle now) const;
  bool has_dispatch_room(const ThreadSlot& t) const;

  std::uint16_t alloc_slot();
  void free_slot(std::uint16_t idx);

  /// Precomputes what a tick would add to the accumulators during the
  /// quiescent span starting at now+1: the per-slot wasted-issue deltas
  /// (with and without a dispatch stall) and the fetch-stage stall
  /// bookkeeping. Every input to these expressions is constant across the
  /// span, so quiet_tick() can replay them bit-identically.
  void prime_quiet_plan(Cycle now);

  /// Settles and wakes a sleeping cluster before external mutation
  /// (freeze/detach/attach); tells the chip so the active list stays
  /// consistent. No-op while awake.
  void ensure_awake(Cycle now);

  /// ThreadContext unblock hook: an externally released thread wakes the
  /// owning (possibly sleeping) cluster through the chip.
  static void unblock_hook(void* ctx, exec::ThreadContext* tc);

  ClusterId id_;
  ClusterConfig cfg_;
  FetchPolicy policy_;
  cache::MemSys& memsys_;
  exec::DeferQueue* defer_ = nullptr;  ///< owning chip's barrier queue
  branch::BranchPredictor predictor_;
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* prof_ = nullptr;
  obs::Track track_;  ///< this cluster's pipeline track

  std::vector<ThreadSlot> threads_;
  std::vector<Uop> slots_;
  std::vector<std::uint16_t> free_slots_;

  // Wakeup-driven issue (DESIGN.md §9). Every array is sized at
  // construction; nothing here is checkpointed (rebuilt from slots_ and
  // the serialized IQ order on restore).
  unsigned iq_size_ = 0;              ///< uops dispatched and not yet issued
  std::uint64_t next_age_ = 0;        ///< dispatch counter
  std::vector<WakeState> wake_;       ///< per slot
  std::vector<std::uint16_t> ready_;  ///< operand-ready uops, oldest first
  std::vector<std::uint32_t> consumers_;  ///< per slot: operand-node chain
  std::vector<std::uint32_t> next_node_;  ///< per operand node: chain link
  std::vector<std::uint16_t> event_link_;  ///< per slot: next in its bucket
  std::uint16_t bucket_[kWheel];  ///< calendar: producers by complete_at
  std::uint64_t bucket_bits_ = 0;     ///< nonempty buckets
  std::uint16_t recheck_ = kNoUop;    ///< producers with an unbound completion
  std::uint32_t blocked_[kNumSlots] = {};  ///< operand-blocked uops by class

  unsigned int_rename_used_ = 0;
  unsigned fp_rename_used_ = 0;
  unsigned fetch_rr_ = 0;
  unsigned commit_rr_ = 0;
  unsigned last_running_ = 0;  ///< Figure 6 sample, updated each tick

  // Per-cycle accounting state (filled by issue(), consumed by account()).
  // The stall histogram counts events, so it is integer; it is converted to
  // double only where account() divides the cycle's wasted slots. Small
  // integers are exact in double, so the conversion reproduces the old
  // per-cycle `+= 1.0` accumulation bit for bit (DESIGN.md §9).
  std::uint32_t cycle_hist_[kNumSlots] = {};
  unsigned issued_useful_ = 0;
  unsigned issued_sync_ = 0;
  bool dispatch_stalled_ = false;

  // Quiescence state: activity flag maintained by tick(), and the replay
  // plan primed by next_event() for quiet_tick() (see prime_quiet_plan).
  bool active_ = true;
  double quiet_delta_[2][kNumSlots] = {};  ///< [dispatch_stalled][slot]
  bool quiet_fallback_stall_ = false;      ///< fetch()'s chosen<0 stall scan
  std::vector<char> quiet_stall_if_selected_;  ///< per-thread RR stall check

  // Cluster-level sleep state (DESIGN.md §14). All transient: none of it is
  // checkpointed — settle() runs before every save and restored clusters
  // start awake, which is stats-neutral because replay is exact.
  Chip* chip_ = nullptr;          ///< wake notifications (not state)
  Cluster* next_active_ = nullptr;  ///< chip's intrusive active list
  bool asleep_ = false;
  bool wake_queued_ = false;      ///< already on the chip's wake list
  Cycle sleep_until_ = 0;         ///< horizon captured at sleep time
  Cycle quiet_from_ = 0;          ///< next skipped cycle not yet replayed
  Cycle idle_streak_ = 0;         ///< inactive ticks since last probe
  Cycle sleep_defer_ = 0;         ///< probe backoff (mirrors kMaxDefer)
  std::uint64_t lazy_replayed_ = 0;

  ClusterStats stats_;
};

}  // namespace csmt::core
