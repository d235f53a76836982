// Mixed OLTP/OLAP: TPC-H refresh streams (RF1 inserts, RF2 deletes)
// applied concurrently with Q1/Q6 readers over the same catalog. Readers
// run compiled scans over merged base+delta snapshots (no locks on the
// read path beyond the snapshot capture), so the interesting number is how
// much read latency the write stream and the background compactions cost:
// the benchmark reports p50/p95/p99 read latency for an OLAP-only baseline
// phase and for the mixed phase, plus refresh throughput.
//
// --json=FILE writes the measurements as the repo's tracked perf datapoint
// (BENCH_mixed.json in CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_support/flags.h"
#include "bench_support/json.h"
#include "exec/engine.h"
#include "tpch/tpch.h"
#include "txn/compactor.h"
#include "util/env.h"
#include "util/timer.h"

using namespace hique;

namespace {

struct Percentiles {
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
  int64_t count = 0;
};

Percentiles Summarize(std::vector<double>* latencies_ms) {
  Percentiles p;
  if (latencies_ms->empty()) return p;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * (latencies_ms->size() - 1));
    return (*latencies_ms)[i];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  p.max = latencies_ms->back();
  p.count = static_cast<int64_t>(latencies_ms->size());
  return p;
}

struct ReaderStats {
  std::vector<double> q1_ms;
  std::vector<double> q6_ms;
  uint64_t errors = 0;
};

/// Runs `readers` threads alternating Q1/Q6 for `seconds`, collecting
/// per-query wall latency (prepare-or-cache-hit + execute + materialize —
/// the latency a client sees).
std::vector<ReaderStats> RunReaders(HiqueEngine* engine, int readers,
                                    double seconds,
                                    std::atomic<bool>* stop_early) {
  std::vector<ReaderStats> stats(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([engine, seconds, stop_early, s = &stats[i]] {
      Session conn = engine->OpenSession();  // one client per reader
      const std::string q1 = tpch::Query1Sql();
      const std::string q6 = tpch::Query6Sql();
      auto end = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(seconds);
      bool flip = false;
      while (std::chrono::steady_clock::now() < end &&
             !stop_early->load(std::memory_order_relaxed)) {
        flip = !flip;
        WallTimer t;
        auto r = conn.Query(flip ? q1 : q6);
        if (!r.ok()) {
          ++s->errors;
          std::printf("reader error: %s\n", r.status().ToString().c_str());
          continue;
        }
        (flip ? s->q1_ms : s->q6_ms).push_back(t.ElapsedMillis());
      }
    });
  }
  for (auto& t : threads) t.join();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double sf = flags.GetDouble("sf", 0.01);
  double phase_s = flags.GetDouble("duration-s", 5.0);
  int readers = static_cast<int>(flags.GetInt("readers", 2));
  uint32_t threads = HiqueEngine::ClampThreads(
      flags.GetInt("threads", env::EnvInt("HQ_THREADS", 2)));
  bool compress = flags.GetInt("compress", 0) != 0;
  std::string json_path = flags.GetString("json", "");

  std::printf("mixed OLTP/OLAP: TPC-H SF=%.3f, %d readers (Q1/Q6) x %u "
              "threads, %.1fs per phase, compression=%s\n\n",
              sf, readers, threads, phase_s, compress ? "on" : "off");

  Catalog catalog;
  tpch::TpchOptions topts;
  topts.scale_factor = sf;
  WallTimer load_timer;
  if (!tpch::LoadTpch(&catalog, topts).ok()) {
    std::printf("load failed\n");
    return 1;
  }
  uint64_t base_lineitem = catalog.GetTable("lineitem").value()->NumTuples();
  uint64_t base_orders = catalog.GetTable("orders").value()->NumTuples();
  std::printf("loaded TPC-H (lineitem=%llu rows) in %.1fs\n",
              static_cast<unsigned long long>(base_lineitem),
              load_timer.ElapsedSeconds());

  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/mixed";
  eopts.threads = threads;
  eopts.compression = compress;
  eopts.tiered_compilation = false;
  eopts.compile.opt_level = 2;
  HiqueEngine engine(&catalog, eopts);
  Session conn = engine.OpenSession();

  // Warm the plan cache so both phases measure cache-hit latency.
  for (const std::string& q : {tpch::Query1Sql(), tpch::Query6Sql()}) {
    auto r = conn.Query(q);
    if (!r.ok()) {
      std::printf("warmup failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  // Phase 1: OLAP-only baseline.
  std::atomic<bool> stop_early{false};
  auto baseline = RunReaders(&engine, readers, phase_s, &stop_early);

  // Phase 2: the same readers with a refresh stream (RF1 insert batches,
  // RF2 delete batches, alternating) applied through the DML path.
  std::atomic<bool> writer_stop{false};
  std::atomic<uint64_t> rf_pairs{0}, rows_inserted{0}, rows_deleted{0},
      writer_errors{0};
  std::thread writer([&] {
    uint64_t stream = 0;
    while (!writer_stop.load(std::memory_order_relaxed)) {
      tpch::RefreshBatch rf1 = tpch::MakeRf1(sf, /*seed=*/42, stream);
      tpch::RefreshBatch rf2 = tpch::MakeRf2(sf, /*seed=*/42, stream);
      for (const auto& batch : {&rf1, &rf2}) {
        for (const std::string& stmt : batch->statements) {
          auto r = conn.Query(stmt);
          if (!r.ok()) {
            writer_errors.fetch_add(1, std::memory_order_relaxed);
            std::printf("writer error: %s\n", r.status().ToString().c_str());
            continue;
          }
          if (batch == &rf1) {
            rows_inserted.fetch_add(
                static_cast<uint64_t>(r.value().rows_affected),
                std::memory_order_relaxed);
          } else {
            rows_deleted.fetch_add(
                static_cast<uint64_t>(r.value().rows_affected),
                std::memory_order_relaxed);
          }
        }
      }
      rf_pairs.fetch_add(1, std::memory_order_relaxed);
      ++stream;
    }
  });
  WallTimer mixed_timer;
  auto mixed = RunReaders(&engine, readers, phase_s, &stop_early);
  double mixed_s = mixed_timer.ElapsedSeconds();
  writer_stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Fold the deltas and verify the merged state adds up: the base rows plus
  // the refresh stream's net effect must equal the compacted tuple count.
  for (const char* t : {"orders", "lineitem"}) {
    Status c = catalog.GetTable(t).value()->Compact(compress);
    if (!c.ok()) {
      std::printf("compaction failed: %s\n", c.ToString().c_str());
      return 1;
    }
  }
  // Conservation check over the merged state: RF1 inserts new orderkeys,
  // RF2 deletes from the base orderkey range (per TPC-H, not RF1's rows),
  // so row counts may drift — but the compacted tables must account for
  // exactly the rows the DML path reported affected.
  uint64_t final_lineitem = catalog.GetTable("lineitem").value()->NumTuples();
  uint64_t final_orders = catalog.GetTable("orders").value()->NumTuples();
  if (final_lineitem + final_orders != base_lineitem + base_orders +
                                           rows_inserted.load() -
                                           rows_deleted.load()) {
    std::printf("FAILED: merged state lost rows (lineitem+orders %llu -> "
                "%llu, +%llu inserted -%llu deleted)\n",
                static_cast<unsigned long long>(base_lineitem + base_orders),
                static_cast<unsigned long long>(final_lineitem + final_orders),
                static_cast<unsigned long long>(rows_inserted.load()),
                static_cast<unsigned long long>(rows_deleted.load()));
    return 1;
  }

  auto fold = [](std::vector<ReaderStats>* stats, bool q1) {
    std::vector<double> all;
    uint64_t errs = 0;
    for (auto& s : *stats) {
      auto& v = q1 ? s.q1_ms : s.q6_ms;
      all.insert(all.end(), v.begin(), v.end());
      errs += s.errors;
    }
    (void)errs;
    return all;
  };
  uint64_t reader_errors = 0;
  for (auto* phase : {&baseline, &mixed}) {
    for (auto& s : *phase) reader_errors += s.errors;
  }

  struct Row {
    const char* phase;
    const char* query;
    Percentiles p;
  };
  std::vector<double> b1 = fold(&baseline, true), b6 = fold(&baseline, false);
  std::vector<double> m1 = fold(&mixed, true), m6 = fold(&mixed, false);
  std::vector<Row> rows = {{"baseline", "Q1", Summarize(&b1)},
                           {"baseline", "Q6", Summarize(&b6)},
                           {"mixed", "Q1", Summarize(&m1)},
                           {"mixed", "Q6", Summarize(&m6)}};

  std::printf("\n%-10s %-4s %10s %10s %10s %10s %8s\n", "phase", "query",
              "p50 ms", "p95 ms", "p99 ms", "max ms", "n");
  for (const Row& r : rows) {
    std::printf("%-10s %-4s %10.2f %10.2f %10.2f %10.2f %8lld\n", r.phase,
                r.query, r.p.p50, r.p.p95, r.p.p99, r.p.max,
                static_cast<long long>(r.p.count));
  }
  double refresh_per_s = mixed_s > 0 ? rf_pairs.load() / mixed_s : 0;
  std::printf("\nrefresh stream: %llu RF1+RF2 pairs (%.2f pairs/s), "
              "%llu rows inserted, %llu rows deleted\n",
              static_cast<unsigned long long>(rf_pairs.load()), refresh_per_s,
              static_cast<unsigned long long>(rows_inserted.load()),
              static_cast<unsigned long long>(rows_deleted.load()));
  std::printf("lineitem rows: %llu base -> %llu after refresh+compaction\n",
              static_cast<unsigned long long>(base_lineitem),
              static_cast<unsigned long long>(final_lineitem));
  if (reader_errors != 0 || writer_errors.load() != 0) {
    std::printf("FAILED: %llu reader errors, %llu writer errors\n",
                static_cast<unsigned long long>(reader_errors),
                static_cast<unsigned long long>(writer_errors.load()));
    return 1;
  }

  if (!json_path.empty()) {
    bench::JsonArr phases;
    for (const Row& r : rows) {
      phases.Add(bench::JsonObj()
                     .Str("phase", r.phase)
                     .Str("query", r.query)
                     .Num("p50_ms", r.p.p50)
                     .Num("p95_ms", r.p.p95)
                     .Num("p99_ms", r.p.p99)
                     .Num("max_ms", r.p.max)
                     .Int("queries", r.p.count)
                     .Render());
    }
    std::string doc =
        bench::JsonObj()
            .Str("bench", "mixed_oltp_olap")
            .Num("scale_factor", sf)
            .Int("readers", readers)
            .Int("threads", threads)
            .Int("compression", compress ? 1 : 0)
            .Num("phase_seconds", phase_s)
            .Add("latencies", phases.Render())
            .Int("rf_pairs", static_cast<int64_t>(rf_pairs.load()))
            .Num("rf_pairs_per_s", refresh_per_s)
            .Int("rows_inserted", static_cast<int64_t>(rows_inserted.load()))
            .Int("rows_deleted", static_cast<int64_t>(rows_deleted.load()))
            .Int("lineitem_rows_base", static_cast<int64_t>(base_lineitem))
            .Int("lineitem_rows_final", static_cast<int64_t>(final_lineitem))
            .Render();
    if (!bench::WriteJsonFile(json_path, doc)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
