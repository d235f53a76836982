// Fig. 7(a) reproduction: join scalability. Outer table fixed at 1M x 72B
// tuples; inner cardinality sweeps 1M..10M; every outer tuple matches ten
// inner tuples. Series: merge join and hybrid hash-sort-merge join, each as
// optimized iterators and as HIQUE generated code.
// Expected shape: all series linear in the inner cardinality; generated
// hybrid join fastest by a clear margin; iterator hybrid ~= generated merge.
//
// A second section tracks intra-query scalability: a fixed table set is
// queried at 1/2/4/8 threads for ORDER BY, merge join, hybrid join, and
// Zipf-skewed variants (the skew-scheduling stress case: one key holds ~10%
// of the outer rows). `--json=FILE` dumps both sections for CI trending.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_support/flags.h"
#include "bench_support/json.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "iterator/volcano_engine.h"
#include "util/env.h"

using namespace hique;

namespace {

EngineOptions BaseOptions(const std::string& gen_tag, uint32_t threads) {
  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/" + gen_tag;
  // Paper-reproduction runs measure the fully specialized per-literal
  // code, not the production parameterized variant.
  eopts.hoist_constants = false;
  // Sweeps measure a fresh compile per statement: no plan cache.
  eopts.cache_compiled = false;
  eopts.threads = threads;
  return eopts;
}

// Best-of-`repeat` execute-only seconds for `sql` under `popts`.
double TimeQuery(HiqueEngine* engine, const std::string& sql,
                 const plan::PlannerOptions& popts, int repeat) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    auto qr = engine->OpenSession({/*override_planner=*/true, popts})
                 .Query(sql);
    if (!qr.ok()) {
      std::printf("query failed: %s\n", qr.status().ToString().c_str());
      std::exit(1);
    }
    double t = qr.value().exec_stats.execute_seconds;
    if (r == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  bool full = flags.GetBool("full", false);
  bool sweep = flags.GetBool("sweep", true);
  int repeat = static_cast<int>(flags.GetInt("repeat", 3));
  std::string json_path = flags.GetString("json", "");
  // Intra-query parallelism sweep: --threads, HQ_THREADS, default 4.
  uint32_t threads = HiqueEngine::ClampThreads(
      flags.GetInt("threads", env::EnvInt("HQ_THREADS", 4)));
  uint64_t outer_rows = static_cast<uint64_t>(1000000 * scale);

  std::vector<uint64_t> inner_millions = full
      ? std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
      : std::vector<uint64_t>{1, 2, 4, 7, 10};

  Catalog catalog;
  HiqueEngine hique(&catalog, BaseOptions("fig7a", 1));
  HiqueEngine hique_mt(&catalog, BaseOptions("fig7a_mt", threads));
  iter::VolcanoEngine volcano(&catalog, iter::Mode::kOptimized);

  bench::JsonArr sweep_json;
  if (sweep) {
    std::printf("Fig. 7(a): join scalability (outer=%llu, 10 matches/outer, "
                "time in seconds; HIQUE-x%u = generated hybrid join at %u "
                "threads, speedup vs 1 thread)\n\n",
                static_cast<unsigned long long>(outer_rows), threads, threads);
    bench::ResultPrinter table({"inner (M)", "Merge-Iterators",
                                "Hybrid-Iterators", "Merge-HIQUE",
                                "Hybrid-HIQUE",
                                "Hybrid-HIQUE-x" + std::to_string(threads),
                                "speedup"});

    for (uint64_t m : inner_millions) {
      uint64_t inner_rows = static_cast<uint64_t>(m * 1000000 * scale);
      int64_t domain = static_cast<int64_t>(inner_rows / 10) + 1;
      std::string oname = "o" + std::to_string(m);
      std::string iname = "i" + std::to_string(m);
      bench::MicroTableSpec ospec;
      ospec.rows = outer_rows;
      ospec.key_domain = domain;
      ospec.seed = 100 + m;
      (void)bench::MakeMicroTable(&catalog, oname, ospec).value();
      bench::MicroTableSpec ispec;
      ispec.rows = inner_rows;
      ispec.key_domain = domain;
      ispec.seed = 200 + m;
      (void)bench::MakeMicroTable(&catalog, iname, ispec).value();

      std::string sql = "select count(*) as cnt, sum(" + iname + "_a) as s "
                        "from " + oname + ", " + iname + " where " + oname +
                        "_k = " + iname + "_k";

      std::vector<std::string> row = {std::to_string(m)};
      std::vector<double> secs;
      for (plan::JoinAlgo algo : {plan::JoinAlgo::kMerge,
                                  plan::JoinAlgo::kHybridHashSortMerge}) {
        plan::PlannerOptions popts;
        popts.force_join_algo = algo;
        popts.fine_partition_max_domain = 0;  // force coarse (paper setup)
        auto vr = volcano.Query(sql, popts);
        if (!vr.ok()) {
          std::printf("volcano failed: %s\n", vr.status().ToString().c_str());
          return 1;
        }
        secs.push_back(vr.value().stats.execute_seconds);
        row.push_back(bench::Sec(secs.back()));
      }
      double hybrid_serial = 0;
      for (plan::JoinAlgo algo : {plan::JoinAlgo::kMerge,
                                  plan::JoinAlgo::kHybridHashSortMerge}) {
        plan::PlannerOptions popts;
        popts.force_join_algo = algo;
        popts.fine_partition_max_domain = 0;
        double t = TimeQuery(&hique, sql, popts, 1);
        if (algo == plan::JoinAlgo::kHybridHashSortMerge) hybrid_serial = t;
        secs.push_back(t);
        row.push_back(bench::Sec(t));
      }
      {
        // Same generated hybrid join, scheduled over the worker pool.
        plan::PlannerOptions popts;
        popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
        popts.fine_partition_max_domain = 0;
        double t_mt = TimeQuery(&hique_mt, sql, popts, 1);
        secs.push_back(t_mt);
        row.push_back(bench::Sec(t_mt));
        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      t_mt > 0 ? hybrid_serial / t_mt : 0.0);
        row.push_back(speedup);
        bench::JsonObj point;
        point.Int("inner_millions", static_cast<int64_t>(m))
            .Num("merge_iter_s", secs[0])
            .Num("hybrid_iter_s", secs[1])
            .Num("merge_hique_s", secs[2])
            .Num("hybrid_hique_s", secs[3])
            .Num("hybrid_hique_mt_s", secs[4])
            .Num("mt_speedup", t_mt > 0 ? hybrid_serial / t_mt : 0.0);
        sweep_json.Add(point.Render());
      }
      table.AddRow(row);
      // Release the per-point tables to bound memory use.
      (void)catalog.DropTable(oname);
      (void)catalog.DropTable(iname);
    }
    table.Print();
  }

  // ---- intra-query scalability: threads x {ORDER BY, joins, skew} -------
  //
  // Fixed tables: "so"/"si" uniform keys (10 matches per key), "zo" the
  // Zipf(1.0) outer — its hottest key covers ~10% of the rows, so a static
  // range split pins one executor unless the scheduler shares the work.
  uint64_t sc_outer = outer_rows;
  uint64_t sc_inner = 2 * sc_outer;
  int64_t sc_domain = static_cast<int64_t>(sc_inner / 10) + 1;
  {
    bench::MicroTableSpec spec;
    spec.rows = sc_outer;
    spec.key_domain = sc_domain;
    spec.seed = 301;
    (void)bench::MakeMicroTable(&catalog, "so", spec).value();
    spec.rows = sc_inner;
    spec.seed = 302;
    (void)bench::MakeMicroTable(&catalog, "si", spec).value();
    spec.rows = sc_outer;
    spec.seed = 303;
    spec.zipf = 1.0;
    (void)bench::MakeMicroTable(&catalog, "zo", spec).value();
  }

  struct ScQuery {
    const char* name;
    std::string sql;
    bool force_merge;
  };
  std::vector<ScQuery> queries = {
      {"order_by", "select so_k, so_v, so_a from so order by so_k, so_v",
       false},
      {"skewed_order_by", "select zo_k, zo_a from zo order by zo_k", false},
      {"merge_join",
       "select count(*) as cnt, sum(si_a) as s from so, si "
       "where so_k = si_k",
       true},
      {"hybrid_join",
       "select count(*) as cnt, sum(si_a) as s from so, si "
       "where so_k = si_k",
       false},
      {"skewed_merge_join",
       "select count(*) as cnt, sum(si_a) as s from zo, si "
       "where zo_k = si_k",
       true},
  };
  std::vector<uint32_t> thread_list;
  for (uint32_t t : {1u, 2u, 4u, 8u}) {
    t = HiqueEngine::ClampThreads(t);
    if (thread_list.empty() || thread_list.back() != t) thread_list.push_back(t);
  }

  std::printf("\nIntra-query scalability (outer=%llu, inner=%llu, "
              "best-of-%d execute seconds; zo = Zipf(1.0) keys)\n\n",
              static_cast<unsigned long long>(sc_outer),
              static_cast<unsigned long long>(sc_inner), repeat);
  std::vector<std::string> headers = {"query"};
  for (uint32_t t : thread_list) headers.push_back("x" + std::to_string(t));
  headers.push_back("speedup@x" + std::to_string(thread_list.back()));
  bench::ResultPrinter sc_table(headers);

  // One engine per pool width; each compiles the query set once into its
  // own gen_dir, and the timed repeats hit the compiled-plan cache.
  std::vector<std::unique_ptr<HiqueEngine>> engines;
  for (uint32_t t : thread_list) {
    engines.push_back(std::make_unique<HiqueEngine>(
        &catalog, BaseOptions("fig7a_sc" + std::to_string(t), t)));
  }

  bench::JsonArr sc_json;
  for (const ScQuery& q : queries) {
    plan::PlannerOptions popts;
    if (q.force_merge) {
      popts.force_join_algo = plan::JoinAlgo::kMerge;
      popts.fine_partition_max_domain = 0;
    } else if (std::string(q.name) == "hybrid_join") {
      popts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
      popts.fine_partition_max_domain = 0;
    }
    std::vector<std::string> row = {q.name};
    double t1 = 0.0, tlast = 0.0;
    for (size_t i = 0; i < thread_list.size(); ++i) {
      double t = TimeQuery(engines[i].get(), q.sql, popts, repeat);
      if (i == 0) t1 = t;
      tlast = t;
      double speedup = t > 0 ? t1 / t : 0.0;
      row.push_back(bench::Sec(t));
      bench::JsonObj point;
      point.Str("query", q.name)
          .Int("threads", static_cast<int64_t>(thread_list[i]))
          .Num("seconds", t)
          .Num("speedup", speedup);
      sc_json.Add(point.Render());
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  tlast > 0 ? t1 / tlast : 0.0);
    row.push_back(speedup);
    sc_table.AddRow(row);
  }
  sc_table.Print();

  if (!json_path.empty()) {
    bench::JsonObj root;
    root.Str("bench", "fig7a_join_scalability")
        .Num("scale", scale)
        .Int("outer_rows", static_cast<int64_t>(outer_rows))
        .Int("sc_inner_rows", static_cast<int64_t>(sc_inner))
        .Int("repeat", repeat)
        .Int("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
        .Add("scalability", sc_json.Render())
        .Add("sweep", sweep_json.Render());
    if (!bench::WriteJsonFile(json_path, root.Render())) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
