#pragma once
/// \file routing_service.hpp
/// The multi-board serving tier: many pipeline::Sessions behind one facade,
/// sharing one exec::TaskPool.
///
/// A `RoutingService` owns a Session per board id and mediates every edit
/// through a per-board queue. A Session is single-threaded by design and
/// its layout is frozen while a route is in flight, so the service never
/// calls into a busy board: edits that arrive mid-route are enqueued (the
/// `RoutingFreeze` throw path is never hit from here) and dispatched when
/// the board's current work finishes. Consecutive queued edits for one
/// board are *coalesced* — applied as a single `Session::apply(span)` batch
/// with one reroute and one clearance re-sweep — which is the burst-
/// absorbing behaviour the edit_storm numbers motivated.
///
/// Fairness comes from the executor, not from a scheduler here: each board
/// with pending work has exactly one pump task in the shared TaskPool at a
/// time, so N busy boards hold N tasks and the work-stealing deques
/// interleave them. A board is never touched by two pump tasks at once
/// (the `busy` flag under the service mutex is the per-board serializer),
/// which preserves the Session's single-threaded facade contract.
///
/// Failure policy (the robustness tier). A dispatch that throws is
/// classified: anything rooted in std::logic_error (bad edit indices,
/// contract violations) is *non-retryable* — the offending edit is dropped
/// and the board moves on — while runtime failures (injected faults,
/// deadline timeouts, cancellations) are *retryable*. Retries walk a
/// degradation ladder: up to `max_attempts` tries per work item, the last
/// one on the Session's Degraded mode (one thread, no shared pool), with
/// capped exponential backoff accounted on a virtual clock
/// (`backoff_virtual_s` — no wall-clock sleeping, so drains stay fast and
/// results carry no timing nondeterminism). A board that exhausts the
/// ladder is *quarantined*: its state reverts to the last-good snapshot
/// (checkpointed after every successful dispatch), queued edits are
/// dropped and counted, and subsequent submits shed with
/// `SubmitStatus::Quarantined` until `resurrect()` re-admits it.
///
/// Backpressure: `queue_limit` bounds each board's queue; a submit over
/// the limit sheds with `SubmitStatus::QueueFull` instead of queueing
/// unboundedly.
///
/// Lifecycle: an idle routed board can be *evicted* — its Session is
/// dismantled into the compact {layout + journal, BoardRoute} snapshot via
/// `Session::release()` — and is transparently *thawed* (Session rebuilt
/// from the snapshot) by the next edit. The service end state is oracle-
/// checked bit-identical to fresh routes by the service_storm and
/// fault_storm benches/tests, evictions, faults and quarantines included.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "exec/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "layout/board_edit.hpp"
#include "pipeline/session.hpp"

namespace lmr::service {

using BoardId = std::string;

/// Service-level knobs. Router-level options (engine, DRC tolerances,
/// deadline, …) stay per-board: they are passed to `add_board`.
struct ServiceOptions {
  /// Thread-count convention shared with Router/Suite: 0 = hardware, 1 =
  /// serial (a 0-worker pool: pump tasks run inline on the draining
  /// thread), N = private pool with N-1 workers. Ignored when `pool` is
  /// set.
  std::size_t threads = 0;
  /// Borrow an existing executor instead of owning one.
  exec::TaskPool* pool = nullptr;
  /// Cap on how many queued edits one dispatch may coalesce into a single
  /// apply batch. 0 = unbounded (drain the whole queue), the default.
  std::size_t max_batch = 0;
  /// Bound on each board's edit queue; a submit that would exceed it sheds
  /// with SubmitStatus::QueueFull. 0 = unbounded, the default. Edits
  /// already claimed by a dispatch (in flight) do not count against it.
  std::size_t queue_limit = 0;
  /// Attempts per work item (initial route or one coalesced batch) before
  /// the board is quarantined. 1 = no retry. When > 1, the final attempt
  /// runs in Session's Degraded mode (single thread, no shared pool).
  std::uint32_t max_attempts = 3;
  /// Capped exponential backoff between retries, accounted on a virtual
  /// clock only (`BoardStats::backoff_virtual_s`); the service never
  /// sleeps, so drain latency and results stay wall-time free.
  double backoff_base_s = 0.01;
  double backoff_cap_s = 1.0;
  /// Service-wide fault plan, installed into every board's RouterOptions
  /// (board id as the site scope) unless the board brought its own.
  /// Disarmed (null) by default.
  std::shared_ptr<fault::FaultPlan> fault_plan;
};

/// Per-board counters, all monotone over the board's lifetime. Snapshot
/// them via `stats(id)`; the service keeps updating its own copy.
struct BoardStats {
  std::uint64_t submitted = 0;          ///< edits accepted by submit()
  std::uint64_t applied = 0;            ///< edits committed through the Session
  std::uint64_t batches = 0;            ///< apply dispatches (1 reroute each)
  std::uint64_t coalesced_batches = 0;  ///< batches with more than one edit
  std::uint64_t max_batch = 0;          ///< largest single batch
  std::uint64_t max_queue_depth = 0;    ///< high-water mark of the queue
  std::uint64_t reroutes = 0;           ///< Session reroutes (== batches)
  std::uint64_t evictions = 0;
  std::uint64_t thaws = 0;
  /// Edits that arrived while the board's layout was route-frozen — each
  /// one would have been a RoutingFreeze throw without the queue.
  std::uint64_t queued_while_frozen = 0;
  // --- robustness counters ---
  std::uint64_t retries = 0;           ///< failed attempts that were retried
  std::uint64_t degraded_retries = 0;  ///< retries demoted to Degraded mode
  std::uint64_t timeouts = 0;          ///< attempts lost to RouteTimeout
  std::uint64_t injected_faults = 0;   ///< attempts lost to fault::InjectedFault
  std::uint64_t quarantines = 0;       ///< times the board entered quarantine
  std::uint64_t resurrections = 0;     ///< times resurrect() re-admitted it
  std::uint64_t shed = 0;          ///< submits rejected (QueueFull/Quarantined)
  std::uint64_t dropped_edits = 0; ///< accepted edits discarded (bad/quarantine)
  double backoff_virtual_s = 0.0;  ///< virtual-clock backoff the board accrued
  double route_s = 0.0;  ///< initial full route wall time
  double apply_s = 0.0;  ///< total apply+sweep wall time
  /// Total/maximum time edits sat queued before their dispatch started.
  double dispatch_wait_s = 0.0;
  double max_dispatch_wait_s = 0.0;
  /// Board-wide cross-member violation count after the latest sweep.
  std::uint64_t clearance_violations = 0;
};

/// What an evicted board shrinks to: the versioned layout (journal intact)
/// and the last whole-board route. Exactly the `Session::release()` pair.
struct BoardSnapshot {
  layout::Layout layout;
  pipeline::BoardRoute route;
};

/// Aggregate across boards, for the bench JSON.
struct ServiceTotals {
  std::uint64_t submitted = 0;
  std::uint64_t applied = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_batches = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t evictions = 0;
  std::uint64_t thaws = 0;
  std::uint64_t queued_while_frozen = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t injected_faults = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t resurrections = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped_edits = 0;
};

/// Typed verdict of submit(): accepted, or shed with the reason.
enum class SubmitStatus : std::uint8_t {
  Accepted,
  QueueFull,     ///< queue_limit reached; edit shed, try again after drain
  Quarantined,   ///< board is quarantined; resurrect() it first
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::Accepted;
  /// The board's submission ordinal (1-based) when accepted, 0 when shed.
  std::uint64_t ordinal = 0;
  [[nodiscard]] bool accepted() const { return status == SubmitStatus::Accepted; }
};

/// One board's contribution to a drain()-time ServiceError.
struct BoardFailure {
  BoardId board;
  std::string message;
};

/// Thrown by drain() after every board settled: aggregates *all* boards
/// that recorded a final failure since the previous drain, not just the
/// first — a storm that kills three boards reports three entries.
class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(std::vector<BoardFailure> failures);
  [[nodiscard]] const std::vector<BoardFailure>& failures() const {
    return failures_;
  }

 private:
  std::vector<BoardFailure> failures_;
};

/// The serving facade. Thread-safe: `submit` may be called from any thread
/// (including concurrently with dispatches running on pool workers); the
/// state accessors require the board to be idle and are meant for the
/// drained state between replay phases.
class RoutingService {
 public:
  explicit RoutingService(ServiceOptions opts = {});
  /// Drains all in-flight work before tearing down (pending queued edits
  /// are dispatched; errors surface nowhere — call drain() yourself first
  /// if you care).
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Register a board and schedule its initial full route. The session is
  /// created immediately; the route runs asynchronously on the pool (wait
  /// for it with drain()). Routing options are per-board; their `pool` is
  /// overridden to the service's executor, `threads` to the service thread
  /// count, `fault_scope` to the board id, and `fault_plan` to the
  /// service-wide plan (unless the board brought its own), so nested
  /// member fan-out shares the workers and fault sites carry the board id.
  /// Throws std::invalid_argument on a duplicate id.
  void add_board(const BoardId& id, drc::DesignRules rules,
                 pipeline::RouterOptions options, layout::Layout board);

  /// Enqueue one edit for `id` and make sure a dispatch is scheduled.
  /// Never blocks on routing and never throws RoutingFreeze's logic_error:
  /// a busy board just queues. Sheds instead of queueing when the board is
  /// quarantined or its queue is at `queue_limit` (see SubmitResult).
  /// Throws std::out_of_range for an unknown id.
  SubmitResult submit(const BoardId& id, layout::BoardEdit edit);

  /// Block until every board is idle with an empty queue, helping the pool
  /// run tasks while waiting (so a 0-worker serial service drains inline).
  /// Throws ServiceError aggregating every board that recorded a *final*
  /// failure since the last drain (quarantine, or a dropped bad edit);
  /// transient failures that a retry recovered do not surface. All boards
  /// settle before the throw.
  void drain();

  /// Evict one idle routed board to its compact snapshot. Returns false
  /// (and does nothing) when the board is busy, has queued or in-flight
  /// edits, is quarantined, or is already evicted. The next submit()
  /// thaws it transparently.
  bool evict(const BoardId& id);
  /// Evict every board that is currently idle; returns how many.
  std::size_t evict_idle();

  /// Re-admit a quarantined board. A routed board resumes from its
  /// last-good snapshot (thawed by the next submit); a board quarantined
  /// during its initial route keeps its pristine layout and the initial
  /// route is rescheduled here. Returns false when not quarantined.
  bool resurrect(const BoardId& id);

  // --- drained-state accessors (throw std::logic_error while busy) ---
  [[nodiscard]] const layout::Layout& board_layout(const BoardId& id) const;
  [[nodiscard]] const pipeline::BoardRoute& board_route(const BoardId& id) const;
  [[nodiscard]] bool is_evicted(const BoardId& id) const;
  [[nodiscard]] bool is_quarantined(const BoardId& id) const;
  /// True once the board's initial route committed (stays true in
  /// quarantine — the last-good snapshot is a routed state).
  [[nodiscard]] bool is_routed(const BoardId& id) const;
  [[nodiscard]] std::size_t queue_depth(const BoardId& id) const;
  [[nodiscard]] BoardStats stats(const BoardId& id) const;
  [[nodiscard]] std::vector<BoardId> board_ids() const;
  [[nodiscard]] ServiceTotals totals() const;
  [[nodiscard]] std::size_t threads() const { return threads_; }

 private:
  using Clock = core::Clock;

  struct Pending {
    layout::BoardEdit edit;
    Clock::time_point enqueued;
  };

  /// Everything the service knows about one board. Nodes live in a
  /// std::map and are never erased, so a pump task may hold a Board*
  /// across the unlocked apply. `session`/`snapshot` pointers only change
  /// under mu_; the pointees are touched exclusively by the pump task that
  /// set `busy`.
  struct Board {
    drc::DesignRules rules;
    pipeline::RouterOptions options;
    std::unique_ptr<pipeline::Session> session;  ///< null while evicted
    std::optional<BoardSnapshot> snapshot;       ///< set while evicted
    /// Checkpoint taken after every successful dispatch — what quarantine
    /// reverts to. Holds a routed state whenever `routed` is true.
    std::optional<BoardSnapshot> last_good;
    std::deque<Pending> queue;
    /// Edits claimed from the queue by the current work item; kept across
    /// retries so a failed batch is re-dispatched without re-queueing.
    std::vector<layout::BoardEdit> inflight;
    /// Leading in-flight edits whose deltas are journaled but whose
    /// reroute failed (session out of sync); the retry resync()s them
    /// instead of re-lowering.
    std::size_t lowered_pending = 0;
    std::uint32_t attempts = 0;  ///< failed attempts on the current work item
    bool busy = false;         ///< a pump task owns this board right now
    bool routed = false;       ///< initial route completed
    bool quarantined = false;  ///< final failure; submits shed until resurrect
    std::exception_ptr error;  ///< first *final* failure since last drain()
    BoardStats stats;
  };

  Board& board_at(const BoardId& id);
  const Board& board_at(const BoardId& id) const;
  const Board& idle_board_at(const BoardId& id) const;
  /// Schedule a pump task for `id`. Caller holds mu_ and has set busy.
  void schedule_locked(const BoardId& id);
  /// One dispatch attempt for one board: initial route, or one coalesced
  /// batch (with resync catch-up after a failed attempt).
  void pump(const BoardId& id);
  /// Final-failure transition. Caller holds mu_.
  void quarantine_locked(Board& b, std::exception_ptr err);
  static bool evict_locked(Board& b);

  ServiceOptions opts_;
  std::size_t threads_;  ///< resolved service parallelism (>= 1)
  std::unique_ptr<exec::TaskPool> owned_pool_;
  exec::TaskPool* pool_;  ///< owned_pool_.get() or opts_.pool

  mutable std::mutex mu_;
  std::map<BoardId, Board> boards_;

  /// Destroyed first (member order): ~TaskGroup drains every pump task
  /// while sessions, boards_ and the pool are still alive above it.
  std::unique_ptr<exec::TaskGroup> group_;
};

}  // namespace lmr::service
