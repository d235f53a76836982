#ifndef HIQUE_EXEC_SESSION_INTERNAL_H_
#define HIQUE_EXEC_SESSION_INTERNAL_H_

// Internal definitions shared by engine.cc and session.cc: the pimpl state
// behind PreparedStatement / Session / ResultSet / QueryHandle and the
// privileged SessionImpl facade. Not part of the public API — include only
// from src/exec implementation files.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/admission.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "util/timer.h"

namespace hique {

/// Immutable after Prepare, so concurrent Execute calls share it freely. The
/// one exception is the replacement slot, guarded by its own mutex.
struct PreparedStatement::State {
  std::string sql;
  std::string signature;
  std::string plan_text;
  std::unique_ptr<plan::PhysicalPlan> plan;
  std::shared_ptr<exec::CompiledLibrary> library;  // pinned: eviction-proof
  QueryTimings prepare_timings;
  bool cache_hit = false;
  // How this statement was planned: a replan re-prepares `sql` with these
  // settings (plus forced hybrid aggregation after a map overflow).
  plan::PlannerOptions planner;
  // Prepared DML: no plan/library — Execute routes `sql` to the DML
  // executor and returns rows-affected through the result.
  bool is_dml = false;
  // Per-table physical-layout versions captured right after binding (same
  // order as plan->query->tables). The executor validates the pinned
  // snapshots against these: a Compress/Decompress rewrite that lands
  // between preparation and pinning fails the execution with
  // RetryReason::kStalePlan instead of running generated code against the
  // wrong page encoding. Layout-preserving compactions do not bump the
  // version, so a compaction storm never starves in-flight queries.
  std::vector<uint64_t> table_layouts;

  // The latest replan of this prepared statement (hybrid aggregation after
  // a map overflow, a fresh plan after a layout change). Later executions
  // start from it instead of repeating the run that failed.
  mutable std::mutex replacement_mu;
  mutable std::shared_ptr<const State> replacement;
};

/// One statement as a session receives it: SQL text, or a prepared
/// statement plus one value per `?` placeholder. Every surface (blocking,
/// cursor, async) hands one of these to SessionImpl::Open.
struct StatementDesc {
  explicit StatementDesc(std::string text) : sql(std::move(text)) {}
  StatementDesc(std::shared_ptr<const PreparedStatement::State> stmt,
                std::vector<Value> vals)
      : prepared(true), statement(std::move(stmt)), values(std::move(vals)) {}

  std::string sql;        // SQL-text form
  bool prepared = false;  // prepared form: `statement` + `values`
  std::shared_ptr<const PreparedStatement::State> statement;  // null: invalid
  std::vector<Value> values;
};

/// The bounded producer→consumer handoff behind a ResultSet: completed
/// result pages queue here until the consumer pulls them. The producer
/// blocks once `capacity` pages are buffered — that bound (plus the page
/// being filled and the page the reader holds) is the cursor's peak
/// result-page residency, independent of result cardinality.
struct StreamCore {
  explicit StreamCore(uint32_t cap) : capacity(cap < 1 ? 1 : cap) {}
  ~StreamCore();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Page*> queue;
  const uint32_t capacity;
  bool closed = false;    // consumer cancelled / went away
  bool finished = false;  // producer done; final_status/rows/stats valid
  Status final_status = Status::OK();
  int64_t rows = 0;
  exec::ExecStats stats;
  uint64_t pages_delivered = 0;
  uint32_t peak_resident = 0;

  // Backpressure-aware page recycling: pages the consumer drained return
  // here and the producer's next result page is carved from this free-list
  // instead of a fresh posix_memalign — in steady state a bounded stream
  // allocates only O(capacity) pages no matter how large the result is.
  // Bounded at capacity + 2 (the residency bound); overflow is freed.
  std::vector<Page*> free_pages;
  uint64_t pages_allocated = 0;  // fresh posix_memalign calls
  uint64_t pages_recycled = 0;   // free-list reuses

  // The flag the executor polls: &cancel, or the async job's flag.
  std::atomic<int32_t> cancel{0};
  std::atomic<int32_t>* cancel_flag = &cancel;

  /// Producer side: enqueue a completed page (takes ownership). Blocks
  /// while the buffer is full; false once the consumer closed (the page is
  /// freed and the query unwinds with HQ_ERR_CANCELLED).
  bool Push(Page* page);

  /// Producer side: a 4096-aligned page from the free-list, or a fresh
  /// allocation (null on allocation failure). Contents are undefined —
  /// the executor's sink zeroes every page it hands to generated code.
  Page* AcquirePage();

  /// Consumer side: hands a drained page back to the free-list (or frees
  /// it when the list is full). Accepts null.
  void Recycle(Page* page);

  /// Producer side: final outcome of the execution.
  void Finish(Status status, int64_t row_count, const exec::ExecStats& s);

  /// Consumer side: next page (ownership transfers to the caller), or
  /// null once the producer finished and the buffer drained.
  Page* Pop();

  /// Non-blocking Pop for event-loop consumers: true with *out set when a
  /// page (or the end of stream, *out == null with `ended` true) is
  /// available right now; false when the producer is still computing.
  bool TryPop(Page** out, bool* ended);

  /// Consumer side: wait until Pop/TryPop would make progress.
  void WaitReadable();

  /// Consumer/session side: request cancellation and wake both ends.
  void CancelAndClose();
};

struct Session::State {
  HiqueEngine* engine = nullptr;
  SessionOptions options;           // as resolved by OpenSession
  plan::PlannerOptions planner;     // effective planner for this session
  uint32_t stream_buffer_pages = 4; // resolved page-buffer bound
  exec::AdmissionController::Client client;  // stride-scheduling state

  // Admission metrics behind Session::Stats(): maintained with atomics so
  // concurrent statements and a remote Stats probe never contend.
  std::atomic<uint64_t> stat_submitted{0};
  std::atomic<uint64_t> stat_dispatched{0};
  std::atomic<uint64_t> stat_queued{0};
  std::atomic<int64_t> stat_wait_micros{0};
  std::atomic<uint64_t> stat_streams_opened{0};
  // Parallel-execution gauges (SessionStats::threads_effective /
  // max_skew_ratio): last completed statement's executor width, and the
  // session-lifetime maximum of the per-statement skew ratio in millis
  // (fixed-point so it fits a lock-free max update).
  std::atomic<uint32_t> stat_threads_effective{0};
  std::atomic<uint64_t> stat_skew_milli{0};
  // Buffer-pool activity (SessionStats::bp_*): cumulative hit/miss/eviction
  // deltas of this session's completed statements (ExecStats::bp_*). Zero
  // for purely in-memory catalogs.
  std::atomic<uint64_t> stat_bp_hits{0};
  std::atomic<uint64_t> stat_bp_misses{0};
  std::atomic<uint64_t> stat_bp_evictions{0};

  std::mutex mu;
  std::vector<std::weak_ptr<StreamCore>> streams;
  std::vector<std::weak_ptr<QueryHandle::AsyncState>> asyncs;
  bool closed = false;
};

struct QueryHandle::AsyncState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool taken = false;
  std::unique_ptr<Result<QueryResult>> result;

  std::atomic<int32_t> cancel{0};
  std::atomic<uint64_t> dispatch_seq{0};
  exec::AdmissionController* controller = nullptr;
  uint64_t ticket = 0;
  // For queue-depth accounting: the session is debited once, whether the
  // job dispatches, is dequeued by Cancel, or settles at session close.
  std::weak_ptr<Session::State> session;
  std::atomic<bool> dequeued{false};
};

/// Everything one statement execution owns: the pinned plan/library/param
/// block the executor reads, the handoff core of a cursor, and the
/// consumer's cursor position. Destroyed only after the producer joined.
struct ResultSet::Stream {
  HiqueEngine* engine = nullptr;
  std::shared_ptr<Session::State> session;

  // What runs: the current prepared state (it owns the plan) and the
  // library pin that keeps the dlopen'd code loaded through evictions.
  std::shared_ptr<const PreparedStatement::State> state;
  std::shared_ptr<exec::CompiledLibrary> library;

  // The prepared statement being executed (null for SQL text): replans
  // store their replacement state in it.
  std::shared_ptr<const PreparedStatement::State> statement;
  std::vector<Value> values;  // placeholder bindings (prepared form)
  std::atomic<int32_t>* external_cancel = nullptr;  // async job's flag
  exec::ParallelRuntime par;

  exec::BoundParams bound;
  std::shared_ptr<StreamCore> core;  // cursors and EXPLAIN output only
  std::thread producer;
  WallTimer exec_timer;  // open → end-of-stream wall time

  // Metadata fixed at open (refreshed by a replan).
  Schema schema;
  uint32_t tuple_size = 0;
  std::string plan_signature;
  std::string plan_text;
  std::string generated_source;
  QueryTimings timings;
  bool cache_hit = false;
  int opt_level = 0;
  int64_t source_bytes = 0;
  int64_t library_bytes = 0;

  // Consumer cursor.
  Page* page = nullptr;       // held page (owned)
  uint32_t row_in_page = 0;
  bool row_valid = false;     // row_in_page addresses a consumed row
  int64_t rows_read = 0;
  bool iterating = false;     // a row was consumed (Materialize forbidden)
  bool page_mode = false;     // Take/TryTakePage used (row access forbidden)
  bool done = false;
  Status end_status = Status::OK();
  exec::ExecStats stats;
  uint32_t stats_peak_pages = 0;  // high-water resident pages across launches
  uint64_t acc_pages_allocated = 0;  // folded from prior cores on relaunch
  uint64_t acc_pages_recycled = 0;

  // Retry budget (SessionImpl::RetryFor): one map-overflow replan, and at
  // most three stale-plan replans so a compaction storm cannot loop a
  // statement forever.
  bool overflow_replanned = false;
  uint32_t stale_replans = 0;
  // SQL text that overflowed: the doomed plan, aliased to the working
  // hybrid library once it succeeds.
  std::string failed_signature;
  plan::ParamTable failed_params;

  // DML statements execute inside Open: rows_affected carries the count
  // and the stream opens finished (done == true, no core, no producer).
  bool is_dml = false;
  int64_t rows_affected = 0;

  // EXPLAIN ANALYZE forces per-operator span collection (and cycle
  // counters) for this one statement, regardless of
  // EngineOptions::trace_spans. Neither flag changes the generated source
  // or the result bytes — collection is engine-side only.
  bool force_op_stats = false;

  // EXPLAIN output: the report pages sit in an already sealed core, there
  // is no producer thread, and statement metrics were recorded by the
  // inner execution — FinishStream must not fold them again.
  bool is_meta = false;

  ~Stream();
};

/// The privileged implementation of the session layer: a friend of
/// HiqueEngine / Session / ResultSet / QueryHandle / PreparedStatement, so
/// the statement pipeline can reach the cache, the worker pool and the
/// prepared-state internals without widening any public surface.
///
/// One path per statement: Open turns a StatementDesc into a stream (the
/// EXPLAIN | DML | SELECT split happens there and only there); the cursor
/// surfaces start a producer thread on it (OpenCursor), the blocking ones
/// run it on the calling thread (Run / DrainInline). Both end every run in
/// RetryFor, and a retryable failure goes through the one Replan.
struct SessionImpl {
  /// Turns a statement into a stream. EXPLAIN renders its report into a
  /// sealed core; DML executes here and opens finished; a SELECT is
  /// planned (or taken from its prepared state) but not started.
  static Result<std::unique_ptr<ResultSet::Stream>> Open(
      const std::shared_ptr<Session::State>& session, const StatementDesc& desc,
      std::atomic<int32_t>* external_cancel);

  /// Session::Prepare: validates DML (executed per Execute) or plans and
  /// compiles a SELECT with placeholders allowed. EXPLAIN is refused.
  static Result<PreparedStatement> Prepare(
      const std::shared_ptr<Session::State>& session, const std::string& sql);

  /// The prepared form of a StatementDesc.
  static StatementDesc Describe(const PreparedStatement& stmt,
                                const std::vector<Value>& values);

  /// Cursor surfaces (QueryStream / ExecuteStream): Open, then start the
  /// SELECT's producer thread behind a bounded handoff queue.
  static Result<ResultSet> OpenCursor(
      const std::shared_ptr<Session::State>& session,
      const StatementDesc& desc);

  /// Blocking surfaces (Query / Execute / SubmitAsync): Open, then drain.
  static Result<QueryResult> Run(const std::shared_ptr<Session::State>& session,
                                 const StatementDesc& desc,
                                 std::atomic<int32_t>* external_cancel);

  /// Runs a SELECT stream on the calling thread — no producer thread, no
  /// handoff queue: the executor's page callback adopts pages straight
  /// into the result table.
  static Result<QueryResult> DrainInline(ResultSet::Stream* stream);

  /// EXPLAIN / EXPLAIN ANALYZE over `inner`: plans (and for ANALYZE,
  /// executes with span collection forced) the inner statement and seals
  /// the report into `stream` as a single-CHAR-column result, so it flows
  /// through every surface — blocking, cursor, and the wire server.
  static Status Explain(ResultSet::Stream* stream, const std::string& inner,
                        bool analyze);

  /// The one retry decision, shared by the cursor and the inline drain: the
  /// replan a finished run earns (kNone on success or a final failure).
  /// Only while no result page has reached the consumer, and within the
  /// stream's per-reason budget.
  static exec::RetryReason RetryFor(ResultSet::Stream* stream,
                                    const Status& status,
                                    const exec::ExecStats& stats,
                                    uint64_t delivered);

  /// The one replan: re-prepares the stream's statement (with hybrid
  /// aggregation forced for kMapOverflow) against the current catalog and
  /// table layouts. A prepared statement keeps the replacement for its
  /// later executions. Does not start execution.
  static Status Replan(ResultSet::Stream* stream, exec::RetryReason reason);

  /// Points the stream at stream->state: library (the cache's current
  /// tier when it holds one), schema and plan metadata.
  static void AdoptState(ResultSet::Stream* stream);

  /// Binds parameters and the execution runtime for one run.
  static Status BindRun(ResultSet::Stream* stream,
                        const std::atomic<int32_t>* cancel);

  /// Binds parameters and starts the producer thread on a fresh core.
  static Status Launch(ResultSet::Stream* stream);

  /// Seals a finished run: stats, execute time, statement metrics and the
  /// overflow alias (success) or the failure count.
  static void Seal(ResultSet::Stream* stream, Status status,
                   const exec::ExecStats& stats, int64_t rows);

  /// Pulls the next completed page (ownership to the caller); handles the
  /// end of stream and the retry. Null at end — stream->done / end_status
  /// are then set.
  static Page* PullPage(ResultSet::Stream* stream);

  /// Non-blocking PullPage for event-loop consumers (the wire server):
  /// kPending means the producer is still computing (or a retry just
  /// relaunched) — poll again. Same end-of-stream handling as PullPage.
  static ResultSet::PagePoll TryPullPage(ResultSet::Stream* stream,
                                         Page** page);

  /// End-of-stream handling once the producer finished and the queue
  /// drained: joins the producer, folds core telemetry into the stream,
  /// relaunches a retry (returns true: keep pulling) or seals done /
  /// end_status (returns false).
  static bool FinishStream(ResultSet::Stream* stream);

  /// Blocking-admission lease for Session::Query/Execute: waits for an
  /// admission slot (same stride queue as SubmitAsync), records the wait
  /// in the session stats, and releases on destruction. Async jobs hold an
  /// admission slot already, so they bypass this.
  class AdmissionLease {
   public:
    explicit AdmissionLease(const std::shared_ptr<Session::State>& session);
    ~AdmissionLease();
    AdmissionLease(const AdmissionLease&) = delete;
    AdmissionLease& operator=(const AdmissionLease&) = delete;

   private:
    exec::AdmissionController* controller_ = nullptr;
    bool leased_ = false;
  };

  /// Adds a stream's handoff core to its session's live set (so Close can
  /// cancel it); fails when the session is closed.
  static Status RegisterStream(const std::shared_ptr<Session::State>& session,
                               const std::shared_ptr<StreamCore>& core);

  /// Shared QueryResult assembly from a finished stream.
  static QueryResult AssembleResult(ResultSet::Stream* stream,
                                    std::unique_ptr<Table> table);

  static QueryHandle Submit(const std::shared_ptr<Session::State>& session,
                            StatementDesc desc);

  static void SettleCancelled(const std::shared_ptr<QueryHandle::AsyncState>& s);
};

}  // namespace hique

#endif  // HIQUE_EXEC_SESSION_INTERNAL_H_
