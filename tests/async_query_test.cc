// Asynchronous query submission: QueryHandle futures (Wait / TryPoll /
// Cancel), the priority-weighted admission-control scheduler in front of
// the shared worker pool, and race-free cancellation of queued and
// in-flight queries.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/executor.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace hique {
namespace {

std::vector<std::string> ResultTuples(const QueryResult& r) {
  std::vector<std::string> rows;
  if (!r.table) return rows;
  uint32_t sz = r.table->schema().TupleSize();
  (void)r.table->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

EngineOptions FastOptions(uint32_t async_slots) {
  static int instance = 0;
  EngineOptions o;
  o.compile.opt_level = 0;
  o.tiered_compilation = false;
  o.async_slots = async_slots;
  o.gen_dir = env::ProcessTempDir() + "/async_e" + std::to_string(instance++);
  return o;
}

class AsyncQueryTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      testing::MakeIntTable(c, "ar", 20000, 50, 21);
      testing::MakeIntTable(c, "as2", 30000, 50, 22);
      testing::MakeIntTable(c, "abig", 150000, 1000, 23);
      return c;
    }();
    return *catalog;
  }
};

TEST_F(AsyncQueryTest, SubmitWaitMatchesBlockingQuery) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  std::vector<std::string> queries = {
      "select ar_k, count(*) as c from ar group by ar_k order by ar_k",
      "select count(*) as c, sum(as2_d) as sd from ar, as2 "
      "where ar_k = as2_k",
      "select ar_k, ar_v from ar where ar_v < 25",
  };
  std::vector<QueryHandle> handles;
  for (const auto& sql : queries) handles.push_back(session.SubmitAsync(sql));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(handles[i].valid());
    auto async_result = handles[i].Wait();
    ASSERT_TRUE(async_result.ok()) << queries[i] << ": "
                                   << async_result.status().ToString();
    auto blocking = session.Query(queries[i]);
    ASSERT_TRUE(blocking.ok());
    EXPECT_EQ(ResultTuples(async_result.value()),
              ResultTuples(blocking.value()))
        << queries[i];
    EXPECT_GT(handles[i].dispatch_seq(), 0u);
    EXPECT_TRUE(handles[i].TryPoll());
  }
}

// Deterministic stride-scheduling order: with one slot and a paused
// scheduler, six jobs from a weight-4 and a weight-1 session must dispatch
// in stride order — passes a1=0, a2=U/4, a3=U/2 vs b1=0, b2=U, b3=2U give
// a1, b1, a2, a3, b2, b3 (ties broken by submission order).
TEST_F(AsyncQueryTest, PriorityWeightedDispatchOrder) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  SessionOptions heavy;
  heavy.priority = 4;
  Session a = engine.OpenSession(heavy);
  SessionOptions light;
  light.priority = 1;
  Session b = engine.OpenSession(light);

  engine.PauseAdmission();
  const std::string sql = "select count(*) as c from ar";
  QueryHandle a1 = a.SubmitAsync(sql);
  QueryHandle b1 = b.SubmitAsync(sql);
  QueryHandle a2 = a.SubmitAsync(sql);
  QueryHandle b2 = b.SubmitAsync(sql);
  QueryHandle a3 = a.SubmitAsync(sql);
  QueryHandle b3 = b.SubmitAsync(sql);
  engine.ResumeAdmission();

  for (QueryHandle* h : {&a1, &b1, &a2, &b2, &a3, &b3}) {
    auto r = h->Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(a1.dispatch_seq(), 1u);
  EXPECT_EQ(b1.dispatch_seq(), 2u);
  EXPECT_EQ(a2.dispatch_seq(), 3u);
  EXPECT_EQ(a3.dispatch_seq(), 4u);
  EXPECT_EQ(b2.dispatch_seq(), 5u);
  EXPECT_EQ(b3.dispatch_seq(), 6u);
}

TEST_F(AsyncQueryTest, CancelQueuedQuerySettlesWithoutRunning) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  Session session = engine.OpenSession({});
  engine.PauseAdmission();
  QueryHandle h = session.SubmitAsync("select count(*) as c from ar");
  h.Cancel();
  auto r = h.Wait();  // settles immediately: the job never dispatched
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(exec::IsCancelled(r.status())) << r.status().ToString();
  EXPECT_EQ(h.dispatch_seq(), 0u);
  engine.ResumeAdmission();
}

TEST_F(AsyncQueryTest, CancelInFlightQueryIsRaceFree) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  const std::string sql = "select abig_k, abig_v, abig_d from abig "
                          "where abig_v >= 0";
  // Fire the cancel at a different point of the query's life each round:
  // before dispatch, mid-execution, or after completion — all must settle
  // without hangs, leaks or crashes (TSan-checked in CI).
  for (int round = 0; round < 10; ++round) {
    QueryHandle h = session.SubmitAsync(sql);
    std::thread canceller([&h, round] {
      for (volatile int spin = 0; spin < round * 20000; ++spin) {
      }
      h.Cancel();
    });
    auto r = h.Wait();
    canceller.join();
    if (!r.ok()) {
      EXPECT_TRUE(exec::IsCancelled(r.status())) << r.status().ToString();
    } else {
      EXPECT_GT(r.value().NumRows(), 0);
    }
  }
  // Engine healthy afterwards.
  auto check = session.Query("select count(*) as c from ar");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

TEST_F(AsyncQueryTest, WaitIsSingleShot) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  Session session = engine.OpenSession({});
  QueryHandle h = session.SubmitAsync("select count(*) as c from ar");
  auto first = h.Wait();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = h.Wait();
  EXPECT_FALSE(second.ok());
}

// Session::Stats must account every admission event: blocking queries and
// async submissions share the counters, queued work shows up in the
// queue-depth gauge, and a cancel-before-dispatch debits it.
TEST_F(AsyncQueryTest, SessionStatsTrackAdmission) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  const std::string sql = "select count(*) as c from ar";

  auto r = session.Query(sql);  // blocking: admitted through the same queue
  ASSERT_TRUE(r.ok());
  SessionStats st = session.Stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.dispatched, 1u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.streams_opened, 0u);

  engine.PauseAdmission();
  QueryHandle h1 = session.SubmitAsync(sql);
  QueryHandle h2 = session.SubmitAsync(sql);
  st = session.Stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.queue_depth, 2u);  // both parked behind the paused scheduler
  EXPECT_EQ(st.dispatched, 1u);
  engine.ResumeAdmission();
  ASSERT_TRUE(h1.Wait().ok());
  ASSERT_TRUE(h2.Wait().ok());
  st = session.Stats();
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.dispatched, 3u);
  EXPECT_GE(st.total_wait_ms, 0.0);

  // Cancelling a still-queued job must debit the gauge too.
  engine.PauseAdmission();
  QueryHandle h3 = session.SubmitAsync(sql);
  EXPECT_EQ(session.Stats().queue_depth, 1u);
  h3.Cancel();
  EXPECT_EQ(session.Stats().queue_depth, 0u);
  engine.ResumeAdmission();
  auto cancelled = h3.Wait();
  EXPECT_FALSE(cancelled.ok());

  // Streaming cursors count separately (they are not admission-gated).
  auto rs = session.QueryStream(sql);
  ASSERT_TRUE(rs.ok());
  ResultSet cursor = std::move(rs).value();
  while (cursor.Next()) {
  }
  EXPECT_EQ(session.Stats().streams_opened, 1u);
}

// Blocking Query/Execute take a lease from the same slot pool the async
// scheduler dispatches into: with one slot occupied by a running async
// job, a blocking query must wait its turn instead of racing past the
// admission control.
TEST_F(AsyncQueryTest, BlockingQueriesShareAdmissionSlots) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));  // one admission slot
  Session session = engine.OpenSession({});

  QueryHandle h = session.SubmitAsync(
      "select count(*) as c, sum(as2_d) as sd from ar, as2 "
      "where ar_k = as2_k");
  // Wait until the job holds the slot (dispatch_seq is set at dispatch).
  while (h.dispatch_seq() == 0) {
    std::this_thread::yield();
  }
  // The slot is taken: this blocking query must queue behind the async
  // job, so by the time it returns the async result must be settled.
  auto blocking = session.Query("select count(*) as c from ar");
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  EXPECT_TRUE(h.TryPoll()) << "blocking query overtook the admission slot";
  auto r = h.Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(session.Stats().dispatched, 2u);
}

TEST_F(AsyncQueryTest, SessionCloseSettlesOutstandingWork) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  Session session = engine.OpenSession({});
  engine.PauseAdmission();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(session.SubmitAsync("select count(*) as c from ar"));
  }
  session.Close();  // queued jobs are dequeued and settled as cancelled
  engine.ResumeAdmission();
  for (auto& h : handles) {
    auto r = h.Wait();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(exec::IsCancelled(r.status())) << r.status().ToString();
  }
  // A closed session refuses new submissions.
  QueryHandle after = session.SubmitAsync("select count(*) as c from ar");
  ASSERT_TRUE(after.valid());
  auto r = after.Wait();
  EXPECT_FALSE(r.ok());

  // Concurrent sessions of the same engine are unaffected.
  Session other = engine.OpenSession({});
  auto ok = other.Query("select count(*) as c from ar");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace hique
