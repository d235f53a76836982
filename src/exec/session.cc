// The session layer: Session / ResultSet / QueryHandle implementations and
// the one statement pipeline behind them. Every surface describes its
// statement as a StatementDesc and opens it through SessionImpl::Open; the
// blocking surfaces then run it on the calling thread, the cursors on a
// producer thread, and both end every run in the same retry decision — so
// the materialized and streamed results are bit-identical by construction.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "exec/session_internal.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "util/macros.h"

namespace hique {

// ---- StreamCore ------------------------------------------------------------

StreamCore::~StreamCore() {
  for (Page* p : queue) std::free(p);
  for (Page* p : free_pages) std::free(p);
}

Page* StreamCore::AcquirePage() {
  {
    std::lock_guard<std::mutex> lk(mu);
    if (!free_pages.empty()) {
      Page* page = free_pages.back();
      free_pages.pop_back();
      ++pages_recycled;
      return page;
    }
    ++pages_allocated;
  }
  void* mem = nullptr;
  if (posix_memalign(&mem, kPageSize, kPageSize) != 0 || mem == nullptr) {
    return nullptr;
  }
  return static_cast<Page*>(mem);
}

void StreamCore::Recycle(Page* page) {
  if (page == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(mu);
    // The free-list is bounded by the residency bound: the producer can
    // never have more pages in flight than that, so anything beyond it
    // would sit idle until the stream ends.
    if (free_pages.size() < capacity + 2) {
      free_pages.push_back(page);
      return;
    }
  }
  std::free(page);
}

bool StreamCore::Push(Page* page) {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return closed || queue.size() < capacity; });
  if (closed) {
    lk.unlock();
    std::free(page);
    return false;
  }
  queue.push_back(page);
  ++pages_delivered;
  // Peak residency: buffered pages + the page the producer fills next +
  // the page the consumer holds.
  uint32_t resident = static_cast<uint32_t>(queue.size()) + 2;
  if (resident > peak_resident) peak_resident = resident;
  cv.notify_all();
  return true;
}

void StreamCore::Finish(Status status, int64_t row_count,
                        const exec::ExecStats& s) {
  {
    std::lock_guard<std::mutex> lk(mu);
    final_status = std::move(status);
    rows = row_count;
    stats = s;
    finished = true;
  }
  cv.notify_all();
}

Page* StreamCore::Pop() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return !queue.empty() || finished || closed; });
  if (!queue.empty()) {
    Page* page = queue.front();
    queue.pop_front();
    cv.notify_all();  // wake a producer blocked on the capacity bound
    return page;
  }
  return nullptr;
}

bool StreamCore::TryPop(Page** out, bool* ended) {
  std::unique_lock<std::mutex> lk(mu);
  if (!queue.empty()) {
    *out = queue.front();
    queue.pop_front();
    lk.unlock();
    cv.notify_all();
    return true;
  }
  if (finished || closed) {
    *out = nullptr;
    *ended = true;
    return true;
  }
  return false;
}

void StreamCore::WaitReadable() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return !queue.empty() || finished || closed; });
}

void StreamCore::CancelAndClose() {
  cancel_flag->store(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
  }
  cv.notify_all();
}

// ---- SessionImpl -----------------------------------------------------------

namespace {

/// Folds a completed statement's execution stats into the session gauges
/// behind Session::Stats(): effective executor width (last statement wins)
/// and the lifetime-max per-barrier skew ratio.
void RecordExecGauges(Session::State* session, const exec::ExecStats& stats) {
  if (session == nullptr) return;
  session->stat_threads_effective.store(stats.threads,
                                        std::memory_order_relaxed);
  auto skew_milli = static_cast<uint64_t>(stats.skew_ratio * 1000.0);
  uint64_t cur = session->stat_skew_milli.load(std::memory_order_relaxed);
  while (skew_milli > cur &&
         !session->stat_skew_milli.compare_exchange_weak(
             cur, skew_milli, std::memory_order_relaxed)) {
  }
  session->stat_bp_hits.fetch_add(stats.bp_hits, std::memory_order_relaxed);
  session->stat_bp_misses.fetch_add(stats.bp_misses,
                                    std::memory_order_relaxed);
  session->stat_bp_evictions.fetch_add(stats.bp_evictions,
                                       std::memory_order_relaxed);
}

/// Process-wide statement instruments, resolved once (the registry mutex is
/// touched only on first use; the hot path is lock-free shard updates).
struct StatementMetrics {
  obs::Counter* statements;
  obs::Counter* failed;
  obs::Counter* rows;
  obs::Counter* slow;
  obs::Counter* bp_hits;
  obs::Counter* bp_misses;
  obs::Counter* bp_evictions;
  obs::Counter* barriers;
  obs::Counter* tasks;
  obs::Histogram* execute_ms;
  obs::Histogram* total_ms;
  obs::Histogram* admission_wait_ms;
  static StatementMetrics& Get() {
    static StatementMetrics* m = [] {
      auto* r = &obs::Registry::Global();
      auto* it = new StatementMetrics();
      it->statements = r->GetCounter("hique_statements_total",
                                     "Statements completed successfully");
      it->failed = r->GetCounter("hique_statements_failed_total",
                                 "Statements that finished with an error");
      it->rows = r->GetCounter("hique_result_rows_total",
                               "Result rows produced by completed statements");
      it->slow = r->GetCounter("hique_slow_queries_total",
                               "Statements recorded in the slow-query log");
      it->bp_hits = r->GetCounter("hique_bufferpool_hits_total",
                                  "Buffer-pool page hits (statement deltas)");
      it->bp_misses =
          r->GetCounter("hique_bufferpool_misses_total",
                        "Buffer-pool page misses (statement deltas)");
      it->bp_evictions =
          r->GetCounter("hique_bufferpool_evictions_total",
                        "Buffer-pool evictions (statement deltas)");
      it->barriers = r->GetCounter("hique_exec_barriers_total",
                                   "Parallel-for barriers executed");
      it->tasks = r->GetCounter("hique_exec_tasks_total",
                                "Parallel-for tasks executed");
      it->execute_ms = r->GetHistogram(
          "hique_statement_execute_ms",
          "Execute-phase wall time per statement (milliseconds)",
          obs::LatencyBucketsMs());
      it->total_ms = r->GetHistogram(
          "hique_statement_total_ms",
          "End-to-end wall time per statement (milliseconds)",
          obs::LatencyBucketsMs());
      it->admission_wait_ms = r->GetHistogram(
          "hique_admission_wait_ms",
          "Admission-queue wait before dispatch (milliseconds)",
          obs::LatencyBucketsMs());
      return it;
    }();
    return *m;
  }
};

double TotalMs(const QueryTimings& t) {
  return t.parse_ms + t.optimize_ms + t.generate_ms + t.compile_ms +
         t.execute_ms;
}

/// Statement-completion fold shared by the cursor and blocking drains:
/// latency histograms, row counters, and the engine's slow-query log.
void RecordStatementDone(ResultSet::Stream* s, int64_t rows) {
  auto& m = StatementMetrics::Get();
  m.statements->Increment();
  if (rows > 0) m.rows->Add(static_cast<uint64_t>(rows));
  m.bp_hits->Add(s->stats.bp_hits);
  m.bp_misses->Add(s->stats.bp_misses);
  m.bp_evictions->Add(s->stats.bp_evictions);
  m.barriers->Add(s->stats.par_barriers);
  m.tasks->Add(s->stats.par_tasks);
  m.execute_ms->Observe(s->timings.execute_ms);
  double total = TotalMs(s->timings);
  m.total_ms->Observe(total);
  HiqueEngine* engine = s->engine;
  if (engine != nullptr && engine->slow_query_ms() > 0 &&
      total >= engine->slow_query_ms()) {
    m.slow->Increment();
    obs::SlowQueryEntry entry;
    entry.sql = s->state->sql;
    entry.signature = s->plan_signature;
    entry.total_ms = total;
    entry.span_summary = obs::SpanSummaryLine(s->timings, s->stats);
    engine->slow_log()->Record(std::move(entry));
  }
}

Status SessionClosedError() {
  return Status::ExecError("session is closed");
}

Status CancelledError() { return Status::ExecError("query cancelled"); }

}  // namespace

/// Registers a stream's handoff core with its session so Close() can cancel
/// it; fails when the session has been closed.
Status SessionImpl::RegisterStream(
    const std::shared_ptr<Session::State>& session,
    const std::shared_ptr<StreamCore>& core) {
  std::lock_guard<std::mutex> lk(session->mu);
  if (session->closed) return SessionClosedError();
  auto& streams = session->streams;
  streams.erase(std::remove_if(streams.begin(), streams.end(),
                               [](const std::weak_ptr<StreamCore>& w) {
                                 return w.expired();
                               }),
                streams.end());
  streams.push_back(core);
  return Status::OK();
}

void SessionImpl::AdoptState(ResultSet::Stream* s) {
  // Prefer the cache's current library for this signature: the background
  // worker may have swapped in the -O2 tier since preparation. The state's
  // pinned library is the eviction-proof fallback.
  s->library = s->engine->PeekLibrary(s->state->signature);
  if (s->library == nullptr) s->library = s->state->library;
  s->schema = s->state->plan->output_schema;
  s->tuple_size = s->schema.TupleSize();
  s->plan_signature = s->state->signature;
  s->plan_text = s->state->plan_text;
  s->opt_level = s->library->opt_level();
  s->source_bytes = s->library->compiled().source_bytes;
  s->library_bytes = s->library->compiled().library_bytes;
  if (s->engine->options().keep_source) {
    s->generated_source = s->library->source();
  }
  // A prepared execution never parses, plans or compiles — its timings
  // report execution only, and it counts as a cache hit.
  if (s->statement == nullptr) {
    s->cache_hit = s->state->cache_hit;
    s->timings = s->state->prepare_timings;
  }
}

Result<std::unique_ptr<ResultSet::Stream>> SessionImpl::Open(
    const std::shared_ptr<Session::State>& session, const StatementDesc& desc,
    std::atomic<int32_t>* external_cancel) {
  {
    std::lock_guard<std::mutex> lk(session->mu);
    if (session->closed) return SessionClosedError();
  }
  auto s = std::make_unique<ResultSet::Stream>();
  s->engine = session->engine;
  s->session = session;
  s->external_cancel = external_cancel;
  if (desc.prepared) {
    if (desc.statement == nullptr) {
      return Status::BindError(
          "invalid (default-constructed) PreparedStatement");
    }
    s->statement = desc.statement;
    s->values = desc.values;
    s->cache_hit = true;
  }
  const std::string& sql = desc.prepared ? desc.statement->sql : desc.sql;

  bool analyze = false;
  std::string inner;
  if (!desc.prepared && sql::ParseExplainPrefix(sql, &analyze, &inner)) {
    HQ_RETURN_IF_ERROR(Explain(s.get(), inner, analyze));
    return s;
  }
  if (desc.prepared ? desc.statement->is_dml : sql::IsDmlStatement(sql)) {
    // Writes bypass the compiled-query machinery: the statement executes
    // before any cursor exists, and every consumer — row loop, page loop,
    // Materialize, the wire server's pump — sees an immediate clean end of
    // stream with rows_affected set.
    if (!s->values.empty()) {
      return Status::BindError("DML statements take no parameter values");
    }
    WallTimer timer;
    HQ_ASSIGN_OR_RETURN(uint64_t affected, s->engine->ExecuteDml(sql));
    s->is_dml = true;
    s->rows_affected = static_cast<int64_t>(affected);
    s->plan_text = "dml";
    s->done = true;
    s->timings.execute_ms = timer.ElapsedMillis();
    return s;
  }
  if (desc.prepared) {
    // Start from the statement's latest replan, if any: it already skips a
    // known-doomed map plan or matches the current table layouts.
    std::lock_guard<std::mutex> lk(desc.statement->replacement_mu);
    s->state = desc.statement->replacement != nullptr
                   ? desc.statement->replacement
                   : desc.statement;
  } else {
    HQ_ASSIGN_OR_RETURN(s->state,
                        s->engine->PrepareState(sql, session->planner,
                                                /*allow_placeholders=*/false));
  }
  AdoptState(s.get());
  s->exec_timer.Restart();
  return s;
}

Result<PreparedStatement> SessionImpl::Prepare(
    const std::shared_ptr<Session::State>& session, const std::string& sql) {
  bool analyze = false;
  std::string inner;
  if (sql::ParseExplainPrefix(sql, &analyze, &inner)) {
    // EXPLAIN is a one-shot diagnostic: its output depends on transient
    // cache state, so a prepared handle would lie on re-execution.
    return Status::BindError("EXPLAIN cannot be prepared; run it with Query()");
  }
  PreparedStatement prepared;
  if (sql::IsDmlStatement(sql)) {
    // Validate now (typed parse/placeholder errors surface at Prepare, as
    // they do for reads) but execute per-Execute: DML compiles nothing, so
    // the prepared state is just the validated statement text.
    HQ_RETURN_IF_ERROR(sql::ParseDml(sql).status());
    auto state = std::make_shared<PreparedStatement::State>();
    state->sql = sql;
    state->signature = "dml";
    state->plan_text = "dml";
    state->is_dml = true;
    prepared.state_ = std::move(state);
    return prepared;
  }
  HQ_ASSIGN_OR_RETURN(prepared.state_,
                      session->engine->PrepareState(
                          sql, session->planner, /*allow_placeholders=*/true));
  return prepared;
}

StatementDesc SessionImpl::Describe(const PreparedStatement& stmt,
                                    const std::vector<Value>& values) {
  return StatementDesc(stmt.state_, values);
}

Result<ResultSet> SessionImpl::OpenCursor(
    const std::shared_ptr<Session::State>& session,
    const StatementDesc& desc) {
  HQ_ASSIGN_OR_RETURN(auto stream, Open(session, desc, nullptr));
  if (!stream->done && stream->core == nullptr) {
    HQ_RETURN_IF_ERROR(Launch(stream.get()));
  }
  session->stat_streams_opened.fetch_add(1, std::memory_order_relaxed);
  ResultSet rs;
  rs.stream_ = std::move(stream);
  return rs;
}

Result<QueryResult> SessionImpl::Run(
    const std::shared_ptr<Session::State>& session, const StatementDesc& desc,
    std::atomic<int32_t>* external_cancel) {
  HQ_ASSIGN_OR_RETURN(auto stream, Open(session, desc, external_cancel));
  if (stream->done || stream->core != nullptr) {
    // DML and EXPLAIN finished inside Open: hand out what they left.
    ResultSet rs;
    rs.stream_ = std::move(stream);
    return rs.Materialize();
  }
  return DrainInline(stream.get());
}

Status SessionImpl::BindRun(ResultSet::Stream* s,
                            const std::atomic<int32_t>* cancel) {
  if (s->statement != nullptr) {
    HQ_RETURN_IF_ERROR(
        exec::BindParamValues(s->state->plan->params, s->values, &s->bound));
  } else {
    exec::BindParams(s->state->plan->params, &s->bound);
  }
  const Session::State& session = *s->session;
  s->par = exec::ParallelRuntime();
  s->par.pool = session.options.threads == 1
                    ? nullptr
                    : session.engine->worker_pool_.get();
  s->par.arena_limit_bytes =
      session.options.arena_limit_bytes == SessionOptions::kInheritArenaLimit
          ? session.engine->options().arena_limit_bytes
          : session.options.arena_limit_bytes;
  s->par.cancel = cancel;
  s->par.priority = session.options.priority;
  s->par.collect_op_stats = s->force_op_stats || s->engine->trace_spans();
  s->par.collect_op_cycles = s->force_op_stats;
  return Status::OK();
}

Status SessionImpl::Launch(ResultSet::Stream* s) {
  s->core = std::make_shared<StreamCore>(s->session->stream_buffer_pages);
  if (s->external_cancel != nullptr) s->core->cancel_flag = s->external_cancel;
  HQ_RETURN_IF_ERROR(BindRun(s, s->core->cancel_flag));
  HQ_RETURN_IF_ERROR(RegisterStream(s->session, s->core));

  ResultSet::Stream* raw = s;
  std::shared_ptr<StreamCore> core = s->core;
  s->producer = std::thread([raw, core] {
    exec::ExecStats stats;
    auto rows = exec::ExecuteEntryStreaming(
        raw->state->plan->query->tables, raw->state->plan->output_schema,
        raw->library->entry(), &raw->bound.abi, &stats, raw->par,
        [&core](Page* page) { return core->Push(page); },
        [&core]() { return core->AcquirePage(); }, &raw->state->table_layouts);
    if (rows.ok()) {
      core->Finish(Status::OK(), rows.value(), stats);
    } else {
      core->Finish(rows.status(), 0, stats);
    }
  });
  return Status::OK();
}

Result<QueryResult> SessionImpl::DrainInline(ResultSet::Stream* s) {
  for (;;) {
    HQ_RETURN_IF_ERROR(BindRun(s, s->external_cancel));
    exec::ExecStats stats;
    auto table = exec::ExecuteEntryToTable(
        s->state->plan->query->tables, s->state->plan->output_schema,
        s->library->entry(), &s->bound.abi, &stats, s->par,
        &s->state->table_layouts);
    Status status = table.ok() ? Status::OK() : table.status();
    // A failed run's pages die with its table: nothing reached a consumer.
    exec::RetryReason reason = RetryFor(s, status, stats, /*delivered=*/0);
    if (reason != exec::RetryReason::kNone) {
      status = Replan(s, reason);
      if (status.ok()) continue;
    }
    Seal(s, status, stats, stats.rows);
    if (!status.ok()) return status;
    return AssembleResult(s, std::move(table).value());
  }
}

exec::RetryReason SessionImpl::RetryFor(ResultSet::Stream* s,
                                        const Status& status,
                                        const exec::ExecStats& stats,
                                        uint64_t delivered) {
  if (status.ok() || delivered != 0) return exec::RetryReason::kNone;
  switch (stats.retry) {
    case exec::RetryReason::kMapOverflow:
      // Stale statistics: directories overflowed before any page was
      // emitted. Re-plan with hybrid aggregation, once.
      if (s->overflow_replanned) return exec::RetryReason::kNone;
      s->overflow_replanned = true;
      return stats.retry;
    case exec::RetryReason::kStalePlan:
      // A compaction or compression rewrite republished a table's pages
      // between preparation and pinning. Bounded so a compaction storm
      // cannot starve the statement.
      if (s->stale_replans >= 3) return exec::RetryReason::kNone;
      ++s->stale_replans;
      return stats.retry;
    case exec::RetryReason::kNone:
      break;
  }
  return exec::RetryReason::kNone;
}

Status SessionImpl::Replan(ResultSet::Stream* s, exec::RetryReason reason) {
  plan::PlannerOptions planner = s->state->planner;
  if (reason == exec::RetryReason::kMapOverflow) {
    planner.force_agg_algo = plan::AggAlgo::kHybridHashSort;
    if (s->statement == nullptr) {
      // Remember the doomed plan so the working library can be aliased
      // under its signature once the retry succeeds.
      s->failed_signature = s->state->signature;
      s->failed_params = s->state->plan->params;
    }
  }
  std::shared_ptr<const PreparedStatement::State> next;
  if (s->statement == nullptr) {
    HQ_ASSIGN_OR_RETURN(next, s->engine->PrepareState(
                                  s->state->sql, planner,
                                  /*allow_placeholders=*/false));
  } else {
    // A prepared statement keeps its replacement, so later executions
    // neither repeat the failed run nor re-prepare. When a concurrent
    // execution replanned since this one started, its newer state is
    // adopted instead of preparing twice — unless this run overflowed and
    // that state still plans map aggregation (a stale-plan replan keeps
    // its base planner), which would overflow again.
    std::lock_guard<std::mutex> lk(s->statement->replacement_mu);
    const auto& current = s->statement->replacement;
    if (current != nullptr && current != s->state &&
        (reason != exec::RetryReason::kMapOverflow ||
         current->planner.force_agg_algo == plan::AggAlgo::kHybridHashSort)) {
      next = current;
    } else {
      HQ_ASSIGN_OR_RETURN(next, s->engine->PrepareState(
                                    s->state->sql, planner,
                                    /*allow_placeholders=*/true));
      s->statement->replacement = next;
    }
  }
  s->state = std::move(next);
  AdoptState(s);
  return Status::OK();
}

void SessionImpl::Seal(ResultSet::Stream* s, Status status,
                       const exec::ExecStats& stats, int64_t rows) {
  RecordExecGauges(s->session.get(), stats);
  s->stats = stats;
  s->timings.execute_ms = s->exec_timer.ElapsedMillis();
  s->done = true;
  s->end_status = std::move(status);
  if (!s->end_status.ok()) {
    StatementMetrics::Get().failed->Increment();
    return;
  }
  RecordStatementDone(s, rows);
  if (!s->failed_signature.empty()) {
    s->engine->InstallOverflowAlias(s->failed_signature, s->failed_params,
                                    *s->state);
  }
}

QueryResult SessionImpl::AssembleResult(ResultSet::Stream* s,
                                        std::unique_ptr<Table> table) {
  QueryResult result;
  result.schema = table->schema();
  result.table = std::move(table);
  result.timings = s->timings;
  result.source_bytes = s->source_bytes;
  result.library_bytes = s->library_bytes;
  result.generated_source = s->generated_source;
  result.plan_text = s->plan_text;
  result.plan_signature = s->plan_signature;
  result.cache_hit = s->cache_hit;
  result.library_opt_level = s->opt_level;
  result.exec_stats = s->stats;
  result.cache_stats = s->engine->CacheStats();
  return result;
}

/// End of stream: the producer finished and the queue drained. Collects
/// the outcome, relaunches a retry (true: a fresh producer is live, keep
/// pulling from the new core), or seals the stream's done/end_status
/// (false).
bool SessionImpl::FinishStream(ResultSet::Stream* s) {
  if (s->producer.joinable()) s->producer.join();
  Status status;
  exec::ExecStats stats;
  int64_t rows;
  uint64_t delivered;
  {
    std::lock_guard<std::mutex> lk(s->core->mu);
    status = s->core->final_status;
    stats = s->core->stats;
    rows = s->core->rows;
    delivered = s->core->pages_delivered;
    s->stats_peak_pages = std::max(s->stats_peak_pages, s->core->peak_resident);
  }
  if (s->is_meta) {
    // EXPLAIN output: the inner execution already folded its stats; just
    // seal the cursor.
    s->stats = stats;
    s->done = true;
    s->end_status = std::move(status);
    return false;
  }
  exec::RetryReason reason = RetryFor(s, status, stats, delivered);
  if (reason != exec::RetryReason::kNone) {
    {
      // The failed core is about to be replaced: fold its allocation
      // telemetry so the cursor's lifetime counters stay complete.
      std::lock_guard<std::mutex> lk(s->core->mu);
      s->acc_pages_allocated += s->core->pages_allocated;
      s->acc_pages_recycled += s->core->pages_recycled;
    }
    status = Replan(s, reason);
    if (status.ok()) status = Launch(s);
    if (status.ok()) return true;
  }
  Seal(s, std::move(status), stats, rows);
  return false;
}

Page* SessionImpl::PullPage(ResultSet::Stream* s) {
  if (s->done) return nullptr;
  for (;;) {
    Page* page = s->core->Pop();
    if (page != nullptr) return page;
    if (!FinishStream(s)) return nullptr;
  }
}

ResultSet::PagePoll SessionImpl::TryPullPage(ResultSet::Stream* s,
                                             Page** page) {
  *page = nullptr;
  if (s->done) return ResultSet::PagePoll::kEnd;
  for (;;) {
    bool ended = false;
    if (!s->core->TryPop(page, &ended)) return ResultSet::PagePoll::kPending;
    if (*page != nullptr) return ResultSet::PagePoll::kPage;
    // Producer finished (or the stream was closed): resolve the outcome.
    // A relaunched retry leaves a fresh producer running — report kPending
    // so the event loop polls the new core.
    if (!FinishStream(s)) return ResultSet::PagePoll::kEnd;
  }
}

// ---- Admission accounting --------------------------------------------------

/// Debits the session's queue-depth gauge exactly once per async job, no
/// matter which path settles it (dispatch, Cancel dequeue, session close,
/// controller shutdown).
static void DebitQueued(const std::shared_ptr<QueryHandle::AsyncState>& s) {
  bool expected = false;
  if (!s->dequeued.compare_exchange_strong(expected, true)) return;
  if (auto session = s->session.lock()) {
    session->stat_queued.fetch_sub(1, std::memory_order_relaxed);
  }
}

SessionImpl::AdmissionLease::AdmissionLease(
    const std::shared_ptr<Session::State>& session) {
  if (session == nullptr || session->engine == nullptr) return;
  controller_ = session->engine->admission();
  session->stat_submitted.fetch_add(1, std::memory_order_relaxed);
  session->stat_queued.fetch_add(1, std::memory_order_relaxed);
  WallTimer wait;
  leased_ = controller_->EnterBlocking(&session->client);
  session->stat_queued.fetch_sub(1, std::memory_order_relaxed);
  session->stat_dispatched.fetch_add(1, std::memory_order_relaxed);
  int64_t waited_micros = wait.ElapsedMicros();
  session->stat_wait_micros.fetch_add(waited_micros,
                                      std::memory_order_relaxed);
  StatementMetrics::Get().admission_wait_ms->Observe(
      static_cast<double>(waited_micros) / 1000.0);
  if (!leased_) controller_ = nullptr;  // shutting down: nothing to release
}

SessionImpl::AdmissionLease::~AdmissionLease() {
  if (controller_ != nullptr) controller_->ExitBlocking();
}

// ---- EXPLAIN / EXPLAIN ANALYZE --------------------------------------------

Status SessionImpl::Explain(ResultSet::Stream* s, const std::string& inner,
                            bool analyze) {
  if (sql::IsDmlStatement(inner)) {
    return Status::PlanError("EXPLAIN supports SELECT statements only");
  }
  bool nested_analyze = false;
  std::string nested;
  if (sql::ParseExplainPrefix(inner, &nested_analyze, &nested)) {
    return Status::ParseError("EXPLAIN cannot be nested");
  }
  // Plan only: prepare (plan + generate + compile, or a cache hit) but
  // never execute. ANALYZE: run the inner statement with per-operator span
  // collection (and cycle counters) forced. The inner execution is the real
  // pipeline — same retries, same metrics fold — so the report reflects
  // exactly what a plain Query did.
  HQ_ASSIGN_OR_RETURN(auto run, Open(s->session, StatementDesc(inner),
                                     s->external_cancel));
  if (analyze) {
    run->force_op_stats = true;
    HQ_RETURN_IF_ERROR(DrainInline(run.get()).status());
  }
  s->plan_text = run->plan_text;
  s->plan_signature = run->plan_signature;
  s->cache_hit = run->cache_hit;
  s->opt_level = run->opt_level;
  s->timings = run->timings;
  s->stats = run->stats;
  std::vector<std::string> lines =
      analyze ? obs::RenderAnalyzeLines(s->plan_text, s->plan_signature,
                                        s->cache_hit, s->opt_level,
                                        s->timings, s->stats)
              : obs::RenderExplainLines(s->plan_text, s->plan_signature,
                                        s->cache_hit, s->opt_level);

  // The report is one fixed-width CHAR column sized to the longest line:
  // CHAR(N) is the only variable-width type the engine has, and a text
  // report is the only result shape that flows through every surface
  // (rows, pages, wire) without a new protocol concept. A tuple must fit
  // one NSM page (and leave the 8-byte rounding room).
  size_t width = 1;
  for (const auto& line : lines) width = std::max(width, line.size());
  constexpr size_t kMaxWidth = 1024;
  auto w = static_cast<uint16_t>(std::min(width, kMaxWidth));
  s->schema = Schema();
  s->schema.AddColumn("plan", Type::Char(w));
  s->tuple_size = s->schema.TupleSize();
  s->is_meta = true;

  // Capacity covers every page up front, so the sealed core is filled
  // without a consumer: Push only blocks once `capacity` pages queue up.
  const uint32_t per_page = Page::TuplesPerPage(s->tuple_size);
  auto pages = static_cast<uint32_t>((lines.size() + per_page - 1) / per_page);
  s->core = std::make_shared<StreamCore>(pages);
  for (size_t i = 0; i < lines.size(); i += per_page) {
    Page* page = s->core->AcquirePage();
    if (page == nullptr) {
      return Status::ExecError("out of memory materializing EXPLAIN");
    }
    std::memset(page, 0, kPageSize);
    page->num_tuples = static_cast<uint32_t>(
        std::min<size_t>(per_page, lines.size() - i));
    for (uint32_t slot = 0; slot < page->num_tuples; ++slot) {
      s->schema.SetValue(page->TupleAt(slot, s->tuple_size), 0,
                         Value::Char(lines[i + slot].substr(0, w), w));
    }
    s->core->Push(page);
  }
  s->core->Finish(Status::OK(), static_cast<int64_t>(lines.size()), s->stats);
  return Status::OK();
}

void SessionImpl::SettleCancelled(
    const std::shared_ptr<QueryHandle::AsyncState>& s) {
  {
    std::lock_guard<std::mutex> lk(s->mu);
    if (s->done) return;
    s->result = std::make_unique<Result<QueryResult>>(CancelledError());
    s->done = true;
  }
  s->cv.notify_all();
}

QueryHandle SessionImpl::Submit(const std::shared_ptr<Session::State>& session,
                                StatementDesc desc) {
  auto state = std::make_shared<QueryHandle::AsyncState>();
  state->controller = session->engine->admission();
  state->session = session;
  {
    std::lock_guard<std::mutex> lk(session->mu);
    auto& asyncs = session->asyncs;
    asyncs.erase(
        std::remove_if(asyncs.begin(), asyncs.end(),
                       [](const std::weak_ptr<QueryHandle::AsyncState>& w) {
                         return w.expired();
                       }),
        asyncs.end());
    asyncs.push_back(state);
    if (session->closed) {
      SettleCancelled(state);
      QueryHandle handle;
      handle.state_ = std::move(state);
      return handle;
    }
  }
  session->stat_submitted.fetch_add(1, std::memory_order_relaxed);
  session->stat_queued.fetch_add(1, std::memory_order_relaxed);
  WallTimer queue_wait;
  auto job = [state, session, queue_wait,
              desc = std::move(desc)](uint64_t seq, bool cancelled) {
    DebitQueued(state);
    if (cancelled || state->cancel.load(std::memory_order_acquire) != 0) {
      SettleCancelled(state);
      return;
    }
    session->stat_dispatched.fetch_add(1, std::memory_order_relaxed);
    int64_t waited_micros = queue_wait.ElapsedMicros();
    session->stat_wait_micros.fetch_add(waited_micros,
                                        std::memory_order_relaxed);
    StatementMetrics::Get().admission_wait_ms->Observe(
        static_cast<double>(waited_micros) / 1000.0);
    state->dispatch_seq.store(seq, std::memory_order_release);
    auto result = Run(session, desc, &state->cancel);
    {
      std::lock_guard<std::mutex> lk(state->mu);
      if (!state->done) {
        state->result =
            std::make_unique<Result<QueryResult>>(std::move(result));
        state->done = true;
      }
    }
    state->cv.notify_all();
  };
  state->ticket = state->controller->Submit(&session->client, std::move(job));
  QueryHandle handle;
  handle.state_ = std::move(state);
  return handle;
}

// ---- ResultSet -------------------------------------------------------------

ResultSet::Stream::~Stream() {
  if (core != nullptr) {
    core->CancelAndClose();
    if (producer.joinable()) producer.join();
    std::lock_guard<std::mutex> lk(core->mu);
    for (Page* p : core->queue) std::free(p);
    core->queue.clear();
  }
  std::free(page);
  page = nullptr;
}

ResultSet::ResultSet() = default;
ResultSet::~ResultSet() = default;
ResultSet::ResultSet(ResultSet&& other) noexcept = default;
ResultSet& ResultSet::operator=(ResultSet&& other) noexcept = default;

const Schema& ResultSet::schema() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->schema;
}

bool ResultSet::Next() {
  if (!valid()) return false;
  Stream* s = stream_.get();
  HQ_CHECK_MSG(!s->page_mode, "row access on a page-mode cursor");
  s->iterating = true;
  for (;;) {
    if (s->page != nullptr) {
      if (s->row_valid && s->row_in_page + 1 < s->page->num_tuples) {
        ++s->row_in_page;
        ++s->rows_read;
        return true;
      }
      if (!s->row_valid && s->page->num_tuples > 0) {
        s->row_in_page = 0;
        s->row_valid = true;
        ++s->rows_read;
        return true;
      }
      // Page exhausted (or defensively empty): hand it back to the
      // producer's free-list so the next result page reuses its memory.
      s->core->Recycle(s->page);
      s->page = nullptr;
      s->row_valid = false;
    }
    s->page = SessionImpl::PullPage(s);
    if (s->page == nullptr) return false;
  }
}

Page* ResultSet::TakePage() {
  if (!valid()) return nullptr;
  Stream* s = stream_.get();
  HQ_CHECK_MSG(!s->iterating, "page access on a row-iterating cursor");
  s->page_mode = true;
  Page* page = SessionImpl::PullPage(s);
  if (page != nullptr) s->rows_read += page->num_tuples;
  return page;
}

ResultSet::PagePoll ResultSet::TryTakePage(Page** page) {
  *page = nullptr;
  if (!valid()) return PagePoll::kEnd;
  Stream* s = stream_.get();
  HQ_CHECK_MSG(!s->iterating, "page access on a row-iterating cursor");
  s->page_mode = true;
  PagePoll poll = SessionImpl::TryPullPage(s, page);
  if (poll == PagePoll::kPage) s->rows_read += (*page)->num_tuples;
  return poll;
}

void ResultSet::RecyclePage(Page* page) {
  if (page == nullptr) return;
  if (valid() && stream_->core != nullptr) {
    stream_->core->Recycle(page);
  } else {
    std::free(page);
  }
}

uint64_t ResultSet::pages_allocated() const {
  if (!valid()) return 0;
  uint64_t n = stream_->acc_pages_allocated;
  if (stream_->core != nullptr) {
    std::lock_guard<std::mutex> lk(stream_->core->mu);
    n += stream_->core->pages_allocated;
  }
  return n;
}

uint64_t ResultSet::pages_recycled() const {
  if (!valid()) return 0;
  uint64_t n = stream_->acc_pages_recycled;
  if (stream_->core != nullptr) {
    std::lock_guard<std::mutex> lk(stream_->core->mu);
    n += stream_->core->pages_recycled;
  }
  return n;
}

const uint8_t* ResultSet::RowBytes() const {
  HQ_CHECK_MSG(valid() && stream_->row_valid, "no current row");
  return stream_->page->TupleAt(stream_->row_in_page, stream_->tuple_size);
}

Value ResultSet::Get(size_t column) const {
  return stream_->schema.GetValue(RowBytes(), column);
}

std::vector<Value> ResultSet::Row() const {
  const uint8_t* tuple = RowBytes();
  std::vector<Value> row;
  row.reserve(stream_->schema.NumColumns());
  for (size_t c = 0; c < stream_->schema.NumColumns(); ++c) {
    row.push_back(stream_->schema.GetValue(tuple, c));
  }
  return row;
}

Status ResultSet::status() const {
  if (!valid()) return Status::InvalidArgument("invalid ResultSet");
  return stream_->end_status;
}

void ResultSet::Close() {
  if (!valid() || stream_->core == nullptr) return;
  Stream* s = stream_.get();
  s->core->CancelAndClose();
  if (s->producer.joinable()) s->producer.join();
  {
    std::lock_guard<std::mutex> lk(s->core->mu);
    for (Page* p : s->core->queue) std::free(p);
    s->core->queue.clear();
    if (!s->done) {
      s->done = true;
      s->end_status = s->core->final_status.ok() ? Status::OK()
                                                 : s->core->final_status;
      s->stats = s->core->stats;
      if (s->core->peak_resident > s->stats_peak_pages) {
        s->stats_peak_pages = s->core->peak_resident;
      }
    }
  }
  std::free(s->page);
  s->page = nullptr;
  s->row_valid = false;
}

Result<QueryResult> ResultSet::Materialize() {
  if (!valid()) return Status::InvalidArgument("invalid ResultSet");
  Stream* s = stream_.get();
  if (s->is_dml) {
    // No result table exists (or could: the schema is empty), so iterating
    // first loses nothing — always surface the affected-row count the
    // pre-finished stream carries.
    QueryResult result;
    result.rows_affected = s->rows_affected;
    result.plan_text = s->plan_text;
    result.timings = s->timings;
    return result;
  }
  if (s->iterating) {
    return Status::InvalidArgument(
        "Materialize requires an unconsumed cursor (rows were already read "
        "through Next)");
  }
  auto table = std::make_unique<Table>("result", s->schema);
  for (;;) {
    Page* page = SessionImpl::PullPage(s);
    if (page == nullptr) break;
    Status adopted = table->AdoptPage(page);
    if (!adopted.ok()) {
      std::free(page);
      Close();
      return adopted;
    }
  }
  if (!s->end_status.ok()) return s->end_status;
  return SessionImpl::AssembleResult(s, std::move(table));
}

const std::string& ResultSet::plan_signature() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->plan_signature;
}
const std::string& ResultSet::plan_text() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->plan_text;
}
const QueryTimings& ResultSet::timings() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->timings;
}
bool ResultSet::cache_hit() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->cache_hit;
}
int ResultSet::library_opt_level() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->opt_level;
}
int64_t ResultSet::rows_read() const {
  return valid() ? stream_->rows_read : 0;
}
int64_t ResultSet::rows_affected() const {
  return valid() ? stream_->rows_affected : 0;
}
uint32_t ResultSet::peak_result_pages() const {
  if (!valid()) return 0;
  uint32_t peak = stream_->stats_peak_pages;
  if (stream_->core != nullptr) {
    std::lock_guard<std::mutex> lk(stream_->core->mu);
    if (stream_->core->peak_resident > peak) {
      peak = stream_->core->peak_resident;
    }
  }
  return peak;
}
const exec::ExecStats& ResultSet::exec_stats() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->stats;
}

// ---- QueryHandle -----------------------------------------------------------

Result<QueryResult> QueryHandle::Wait() {
  if (!valid()) return Status::InvalidArgument("invalid QueryHandle");
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  if (state_->taken) {
    return Status::InvalidArgument("query result was already taken");
  }
  state_->taken = true;
  Result<QueryResult> result = std::move(*state_->result);
  state_->result.reset();
  return result;
}

bool QueryHandle::TryPoll() const {
  if (!valid()) return false;
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

void QueryHandle::Cancel() {
  if (!valid()) return;
  state_->cancel.store(1, std::memory_order_release);
  if (state_->controller != nullptr &&
      state_->controller->TryRemove(state_->ticket)) {
    // Dequeued before dispatch: settle the promise ourselves.
    DebitQueued(state_);
    SessionImpl::SettleCancelled(state_);
  }
  // Otherwise the job is running (the cancel flag interrupts it at the
  // next cancellation point) or already done.
}

uint64_t QueryHandle::dispatch_seq() const {
  return valid() ? state_->dispatch_seq.load(std::memory_order_acquire) : 0;
}

// ---- Session ---------------------------------------------------------------

Session::~Session() = default;

const SessionOptions& Session::options() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid Session");
  return state_->options;
}

HiqueEngine* Session::engine() const {
  return valid() ? state_->engine : nullptr;
}

Result<QueryResult> Session::Query(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  // Blocking submissions wait in the same stride queue as SubmitAsync jobs
  // (one shared slot pool), so a storm of blocking remote clients cannot
  // starve async slots — or the other way round.
  SessionImpl::AdmissionLease lease(state_);
  return SessionImpl::Run(state_, StatementDesc(sql), nullptr);
}

Result<QueryResult> Session::Execute(const PreparedStatement& stmt,
                                     const std::vector<Value>& values) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  SessionImpl::AdmissionLease lease(state_);
  return SessionImpl::Run(state_, SessionImpl::Describe(stmt, values), nullptr);
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::Prepare(state_, sql);
}

Result<ResultSet> Session::QueryStream(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::OpenCursor(state_, StatementDesc(sql));
}

Result<ResultSet> Session::ExecuteStream(const PreparedStatement& stmt,
                                         const std::vector<Value>& values) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::OpenCursor(state_, SessionImpl::Describe(stmt, values));
}

QueryHandle Session::SubmitAsync(const std::string& sql) {
  if (!valid()) return QueryHandle();
  return SessionImpl::Submit(state_, StatementDesc(sql));
}

QueryHandle Session::SubmitAsync(const PreparedStatement& stmt,
                                 const std::vector<Value>& values) {
  if (!valid()) return QueryHandle();
  return SessionImpl::Submit(state_, SessionImpl::Describe(stmt, values));
}

SessionStats Session::Stats() const {
  SessionStats st;
  if (!valid()) return st;
  st.submitted = state_->stat_submitted.load(std::memory_order_relaxed);
  st.dispatched = state_->stat_dispatched.load(std::memory_order_relaxed);
  st.queue_depth = state_->stat_queued.load(std::memory_order_relaxed);
  st.total_wait_ms =
      state_->stat_wait_micros.load(std::memory_order_relaxed) / 1000.0;
  st.streams_opened =
      state_->stat_streams_opened.load(std::memory_order_relaxed);
  st.threads_effective =
      state_->stat_threads_effective.load(std::memory_order_relaxed);
  st.max_skew_ratio =
      state_->stat_skew_milli.load(std::memory_order_relaxed) / 1000.0;
  st.bp_hits = state_->stat_bp_hits.load(std::memory_order_relaxed);
  st.bp_misses = state_->stat_bp_misses.load(std::memory_order_relaxed);
  st.bp_evictions =
      state_->stat_bp_evictions.load(std::memory_order_relaxed);
  return st;
}

void Session::Close() {
  if (!valid()) return;
  std::vector<std::shared_ptr<StreamCore>> cores;
  std::vector<std::shared_ptr<QueryHandle::AsyncState>> asyncs;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->closed = true;
    for (auto& w : state_->streams) {
      if (auto core = w.lock()) cores.push_back(std::move(core));
    }
    for (auto& w : state_->asyncs) {
      if (auto a = w.lock()) asyncs.push_back(std::move(a));
    }
    state_->streams.clear();
    state_->asyncs.clear();
  }
  // Cancel open cursors (their ResultSet owners observe "query cancelled"
  // and join their producers on Close/destruction).
  for (auto& core : cores) core->CancelAndClose();
  // Cancel async submissions and wait for them to settle: queued jobs are
  // dequeued, running ones are interrupted at their next cancellation
  // point.
  for (auto& a : asyncs) {
    a->cancel.store(1, std::memory_order_release);
    if (a->controller != nullptr && a->controller->TryRemove(a->ticket)) {
      DebitQueued(a);
      SessionImpl::SettleCancelled(a);
    }
  }
  for (auto& a : asyncs) {
    std::unique_lock<std::mutex> lk(a->mu);
    a->cv.wait(lk, [&] { return a->done; });
  }
}

// ---- HiqueEngine ----------------------------------------------------------

Session HiqueEngine::OpenSession(SessionOptions options) {
  if (options.priority < 1) options.priority = 1;
  if (options.priority > 64) options.priority = 64;
  auto state = std::make_shared<Session::State>();
  state->engine = this;
  state->options = options;
  state->planner = options.override_planner ? options.planner
                                            : options_.planner;
  state->stream_buffer_pages = options.stream_buffer_pages != 0
                                   ? options.stream_buffer_pages
                                   : options_.stream_buffer_pages;
  if (state->stream_buffer_pages < 1) state->stream_buffer_pages = 1;
  state->client.weight = static_cast<uint32_t>(options.priority);
  Session session;
  session.state_ = std::move(state);
  return session;
}

}  // namespace hique
