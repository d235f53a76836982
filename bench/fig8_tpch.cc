// Fig. 8 reproduction: TPC-H Queries 1, 3, 6 and 10 across four systems:
//   - generic Volcano iterators (PostgreSQL stand-in, NSM + interpretation)
//   - optimized Volcano iterators (System X stand-in, NSM + typed iterators)
//   - column-at-a-time engine (MonetDB stand-in, DSM + materialization)
//   - HIQUE (generated code over NSM), scalar and SIMD kernel versions
// Expected shape (paper): Q1 — HIQUE beats the column engine ~4x and the
// NSM iterator engines by 1-2 orders of magnitude; Q3/Q10 — HIQUE and the
// column engine trade places (wide tuples favour DSM), both well ahead of
// the NSM iterator engines. Q6 (not in the paper's figure) is the
// selection-dominated query where the SIMD bitmap kernels matter most.
//
// --json=FILE writes the measurements as the repo's tracked perf datapoint
// (BENCH_fig8.json in CI): the scalar-vs-SIMD delta per query.

#include <cstdio>
#include <thread>

#include "bench_support/flags.h"
#include "bench_support/json.h"
#include "bench_support/micro_data.h"
#include "column/column_engine.h"
#include "exec/engine.h"
#include "iterator/volcano_engine.h"
#include "tpch/tpch.h"
#include "util/env.h"
#include "util/timer.h"

using namespace hique;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double sf = flags.GetDouble("sf", 0.1);
  int repeat = static_cast<int>(flags.GetInt("repeat", 3));
  // Intra-query parallelism sweep: --threads, HQ_THREADS, default 4.
  uint32_t threads = HiqueEngine::ClampThreads(
      flags.GetInt("threads", env::EnvInt("HQ_THREADS", 4)));
  std::string json_path = flags.GetString("json", "");
  // Beyond-memory regime: cap the buffer pool at this many 4 KiB frames and
  // run the capped-pool section over file-backed tables, compressed vs
  // uncompressed (0 = skip the section). Also honours HQ_BUFFER_PAGES.
  uint64_t buffer_pages = static_cast<uint64_t>(
      flags.GetInt("buffer-pages", env::EnvInt("HQ_BUFFER_PAGES", 0)));

  std::printf("Fig. 8: TPC-H Q1/Q3/Q6/Q10 at SF=%.2f (times in seconds, "
              "best of %d; HIQUE-x%u = %u threads)\n",
              sf, repeat, threads, threads);
  std::printf("systems: generic iterators (PostgreSQL stand-in), optimized "
              "iterators (System X stand-in),\n"
              "         column engine (MonetDB stand-in), HIQUE generated "
              "code — see DESIGN.md for the substitutions\n"
              "HIQUE-scalar forces the scalar kernel versions; HIQUE runs "
              "the widest SIMD level this host supports\n\n");

  Catalog catalog;
  tpch::TpchOptions topts;
  topts.scale_factor = sf;
  WallTimer load_timer;
  Status load = tpch::LoadTpch(&catalog, topts);
  if (!load.ok()) {
    std::printf("load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  std::printf("loaded TPC-H (lineitem=%llu rows) in %.1fs\n\n",
              static_cast<unsigned long long>(
                  catalog.GetTable("lineitem").value()->NumTuples()),
              load_timer.ElapsedSeconds());

  EngineOptions eopts;
  eopts.gen_dir = env::ProcessTempDir() + "/fig8";
  // Paper-reproduction runs measure the fully specialized per-literal
  // code, not the production parameterized variant, and measure the
  // optimized compile tier (the paper compiles with optimizations on);
  // tiered compilation would report the -O0 warm-up tier.
  eopts.hoist_constants = false;
  eopts.tiered_compilation = false;
  eopts.compile.opt_level = 2;
  eopts.threads = 1;
  HiqueEngine hique(&catalog, eopts);
  Session hique_conn = hique.OpenSession();
  EngineOptions sopts = eopts;
  sopts.gen_dir = env::ProcessTempDir() + "/fig8_scalar";
  sopts.simd = false;
  HiqueEngine hique_scalar(&catalog, sopts);
  Session hique_scalar_conn = hique_scalar.OpenSession();
  EngineOptions mopts = eopts;
  mopts.gen_dir = env::ProcessTempDir() + "/fig8_mt";
  mopts.threads = threads;
  HiqueEngine hique_mt(&catalog, mopts);
  Session hique_mt_conn = hique_mt.OpenSession();
  // Span-collection engine: trace_spans records the per-operator breakdown
  // (same generated source — only an engine-side recorder is installed).
  // Runs once per query outside the timed repeats so the tracked numbers
  // stay untouched by the extra clock reads.
  EngineOptions spopts = mopts;
  spopts.gen_dir = env::ProcessTempDir() + "/fig8_span";
  spopts.trace_spans = true;
  HiqueEngine hique_span(&catalog, spopts);
  Session hique_span_conn = hique_span.OpenSession();
  // Compressed-storage run: a second identically seeded catalog (the
  // compressing engine rewrites its tables in place, which must not
  // perturb the other systems' inputs) with decode fused into the
  // generated scans.
  Catalog catalog_comp;
  if (!tpch::LoadTpch(&catalog_comp, topts).ok()) {
    std::printf("compressed-catalog load failed\n");
    return 1;
  }
  EngineOptions copts = eopts;
  copts.gen_dir = env::ProcessTempDir() + "/fig8_comp";
  copts.compression = true;
  HiqueEngine hique_comp(&catalog_comp, copts);
  Session hique_comp_conn = hique_comp.OpenSession();
  iter::VolcanoEngine pg(&catalog, iter::Mode::kGeneric);
  iter::VolcanoEngine sysx(&catalog, iter::Mode::kOptimized);
  col::ColumnEngine monet(&catalog);
  // Decompose up front: column-store import cost is load-time, not
  // query-time (as for MonetDB in the paper).
  for (const char* t : {"lineitem", "orders", "customer", "nation"}) {
    auto d = monet.Decompose(t);
    if (!d.ok()) {
      std::printf("decompose: %s\n", d.status().ToString().c_str());
      return 1;
    }
  }

  struct QuerySpec {
    const char* name;
    std::string sql;
  };
  std::vector<QuerySpec> queries = {{"Q1", tpch::Query1Sql()},
                                    {"Q3", tpch::Query3Sql()},
                                    {"Q6", tpch::Query6Sql()},
                                    {"Q10", tpch::Query10Sql()}};

  bench::ResultPrinter table({"query", "Generic iterators",
                              "Optimized iterators", "Column engine",
                              "HIQUE-scalar", "HIQUE", "HIQUE-comp",
                              "HIQUE-x" + std::to_string(threads),
                              "simd speedup", "HIQUE rows"});
  // Each system runs its repeats back-to-back (system-major order): the
  // scalar-vs-SIMD comparison is cache-sensitive, and interleaving systems
  // per repeat lets the column engine's DSM copies evict the shared table
  // pages between the two HIQUE runs being compared.
  bool failed = false;
  std::string cur_sql;
  auto best = [&](const char* qname, const char* sys, auto& engine,
                  auto time_of) {
    double t = 1e100;
    // One untimed warm-up so every system's timed repeats start from the
    // same steady cache/allocator state.
    for (int r = -1; r < repeat && !failed; ++r) {
      auto res = engine.Query(cur_sql);
      if (!res.ok()) {
        std::printf("%s %s: %s\n", qname, sys,
                    res.status().ToString().c_str());
        failed = true;
        return t;
      }
      if (r >= 0) t = std::min(t, time_of(res.value()));
    }
    return t;
  };
  // One instrumented run per query: per-operator wall time / tuples /
  // pages / barriers keyed to the plan's op lines, embedded in the JSON
  // datapoint so a perf regression points at the operator, not the query.
  auto op_spans_json = [&](const std::string& sql) {
    bench::JsonArr spans;
    auto res = hique_span_conn.Query(sql);
    if (!res.ok()) return spans;
    const QueryResult& r = res.value();
    std::vector<std::string> plan_lines;
    std::string line;
    for (char c : r.plan_text) {
      if (c == '\n') {
        plan_lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) plan_lines.push_back(line);
    for (const exec::OpStat& op : r.exec_stats.ops) {
      std::string label;
      if (op.op_id >= 0 &&
          op.op_id < static_cast<int32_t>(plan_lines.size())) {
        const std::string& pl = plan_lines[static_cast<size_t>(op.op_id)];
        size_t b = pl.find_first_not_of(" \t");
        size_t e = pl.find_last_not_of(" \t\r");
        if (b != std::string::npos) label = pl.substr(b, e - b + 1);
      }
      spans.Add(bench::JsonObj()
                    .Int("op_id", op.op_id)
                    .Str("op", label)
                    .Num("wall_s", op.wall_seconds)
                    .Int("tuples", static_cast<int64_t>(op.tuples))
                    .Int("pages", static_cast<int64_t>(op.pages))
                    .Int("barriers", static_cast<int64_t>(op.barriers))
                    .Int("tasks", static_cast<int64_t>(op.tasks))
                    .Num("max_skew", op.max_skew)
                    .Render());
    }
    return spans;
  };
  bench::JsonArr json_queries;
  for (const auto& q : queries) {
    cur_sql = q.sql;
    int64_t rows = 0;
    double t_pg = best(q.name, "generic", pg,
                       [](const auto& r) { return r.stats.execute_seconds; });
    double t_sysx = best(q.name, "optimized", sysx,
                         [](const auto& r) { return r.stats.execute_seconds; });
    double t_col = best(q.name, "column", monet,
                        [](const auto& r) { return r.total_seconds; });
    double t_scalar =
        best(q.name, "hique-scalar", hique_scalar_conn,
             [](const auto& r) { return r.exec_stats.execute_seconds; });
    double t_hq = best(q.name, "hique", hique_conn, [&rows](const auto& r) {
      rows = r.NumRows();
      return r.exec_stats.execute_seconds;
    });
    int64_t comp_rows = 0;
    double t_comp =
        best(q.name, "hique-comp", hique_comp_conn,
             [&comp_rows](const auto& r) {
               comp_rows = r.NumRows();
               return r.exec_stats.execute_seconds;
             });
    double t_mt = best(q.name, "hique-mt", hique_mt_conn,
                       [](const auto& r) { return r.exec_stats.execute_seconds; });
    if (failed) return 1;
    if (comp_rows != rows) {
      std::printf("%s: compressed run returned %lld rows, uncompressed %lld\n",
                  q.name, static_cast<long long>(comp_rows),
                  static_cast<long long>(rows));
      return 1;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  t_hq > 0 ? t_scalar / t_hq : 0.0);
    table.AddRow({q.name, bench::Sec(t_pg), bench::Sec(t_sysx),
                  bench::Sec(t_col), bench::Sec(t_scalar), bench::Sec(t_hq),
                  bench::Sec(t_comp), bench::Sec(t_mt), speedup,
                  std::to_string(rows)});
    json_queries.Add(bench::JsonObj()
                         .Str("name", q.name)
                         .Num("generic_s", t_pg)
                         .Num("optimized_s", t_sysx)
                         .Num("column_s", t_col)
                         .Num("hique_scalar_s", t_scalar)
                         .Num("hique_simd_s", t_hq)
                         .Num("hique_comp_s", t_comp)
                         .Num("hique_mt_s", t_mt)
                         .Num("simd_speedup", t_hq > 0 ? t_scalar / t_hq : 0)
                         .Num("comp_speedup", t_comp > 0 ? t_hq / t_comp : 0)
                         .Num("mt_speedup", t_mt > 0 ? t_hq / t_mt : 0)
                         .Int("rows", rows)
                         .Add("op_spans", op_spans_json(q.sql).Render())
                         .Render());
  }
  table.Print();

  // Kernel microbenchmarks on the §VI 72-byte-tuple micro tables: the
  // fig7c-style selective join (SIMD predicate kernel ahead of the join)
  // and the fig6-style large-domain group-by (vectorized partition hash).
  // These isolate the scalar-vs-SIMD kernel delta that the TPC-H mix
  // dilutes; tracked in BENCH_fig8.json alongside the queries.
  // Sized to stay LLC-resident (600k x 72 B = ~43 MB): the kernels target
  // the paper's cache-conscious regime, and at DRAM-bound sizes both code
  // versions converge on memory bandwidth.
  bench::MicroTableSpec mspec;
  mspec.rows = 600000;
  mspec.key_domain = 100000;
  mspec.seed = 5;
  if (!bench::MakeMicroTable(&catalog, "mr", mspec).ok()) return 1;
  mspec.rows = 150000;
  mspec.seed = 6;
  if (!bench::MakeMicroTable(&catalog, "ms", mspec).ok()) return 1;
  std::vector<QuerySpec> micro = {
      {"fig7c_seljoin",
       "select count(*) as c, sum(ms_b) as sb from mr, ms "
       "where mr_k = ms_k and mr_v >= 2500 and mr_v < 7500 "
       "and mr_a >= 626.0 and mr_a < 700.0 "
       "and ms_v >= 2500 and ms_v < 4000"},
      {"fig6_groupby",
       "select mr_k, count(*) as c, sum(mr_a) as sa "
       "from mr group by mr_k"}};
  bench::ResultPrinter ktable({"kernel micro", "HIQUE-scalar", "HIQUE",
                               "HIQUE-x" + std::to_string(threads),
                               "simd speedup", "rows"});
  bench::JsonArr json_micro;
  for (const auto& q : micro) {
    int64_t rows = 0;
    double t_scalar = 1e100, t_hq = 1e100;
    for (int r = -1; r < repeat; ++r) {
      auto rs = hique_scalar_conn.Query(q.sql);
      auto rv = hique_conn.Query(q.sql);
      if (!rs.ok() || !rv.ok()) {
        std::printf("%s hique: %s\n", q.name,
                    (rs.ok() ? rv : rs).status().ToString().c_str());
        return 1;
      }
      if (r < 0) continue;
      t_scalar = std::min(t_scalar, rs.value().exec_stats.execute_seconds);
      t_hq = std::min(t_hq, rv.value().exec_stats.execute_seconds);
      rows = rv.value().NumRows();
    }
    cur_sql = q.sql;
    double t_mt = best(q.name, "hique-mt", hique_mt_conn,
                       [](const auto& r) { return r.exec_stats.execute_seconds; });
    if (failed) return 1;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  t_hq > 0 ? t_scalar / t_hq : 0.0);
    ktable.AddRow({q.name, bench::Sec(t_scalar), bench::Sec(t_hq),
                   bench::Sec(t_mt), speedup, std::to_string(rows)});
    json_micro.Add(bench::JsonObj()
                       .Str("name", q.name)
                       .Num("hique_scalar_s", t_scalar)
                       .Num("hique_simd_s", t_hq)
                       .Num("hique_mt_s", t_mt)
                       .Num("simd_speedup", t_hq > 0 ? t_scalar / t_hq : 0)
                       .Num("mt_speedup", t_mt > 0 ? t_hq / t_mt : 0)
                       .Int("rows", rows)
                       .Add("op_spans", op_spans_json(q.sql).Render())
                       .Render());
  }
  std::printf("\n");
  ktable.Print();

  // Beyond-memory regime (--buffer-pages): the same TPC-H data file-backed
  // under a buffer pool too small to hold lineitem, compressed vs
  // uncompressed. Compression packs more tuples per page, so the same scan
  // reads fewer pages from disk — the regime where the codec is a
  // bandwidth optimisation, not just a cache one.
  bench::JsonArr json_capped;
  if (buffer_pages > 0) {
    std::printf("\ncapped buffer pool: %llu frames (%.1f MiB) over "
                "file-backed tables\n",
                static_cast<unsigned long long>(buffer_pages),
                buffer_pages * 4096.0 / (1024 * 1024));
    BufferManager pool_plain(buffer_pages);
    BufferManager pool_comp(buffer_pages);
    Catalog cat_plain, cat_comp;
    tpch::TpchOptions fopts = topts;
    auto load_file_backed = [&](BufferManager* pool, Catalog* cat,
                                const char* sub) {
      fopts.buffer_manager = pool;
      fopts.data_dir = env::ProcessTempDir() + "/" + sub;
      if (!env::MakeDirs(fopts.data_dir).ok()) return false;
      return tpch::LoadTpch(cat, fopts).ok();
    };
    if (!load_file_backed(&pool_plain, &cat_plain, "fig8_bp_plain") ||
        !load_file_backed(&pool_comp, &cat_comp, "fig8_bp_comp")) {
      std::printf("file-backed load failed\n");
      return 1;
    }
    EngineOptions bopts = eopts;
    bopts.gen_dir = env::ProcessTempDir() + "/fig8_bp_plain_gen";
    bopts.buffer_pool_pages = buffer_pages;
    HiqueEngine bp_plain(&cat_plain, bopts);
    Session bp_plain_conn = bp_plain.OpenSession();
    EngineOptions bcopts = bopts;
    bcopts.gen_dir = env::ProcessTempDir() + "/fig8_bp_comp_gen";
    bcopts.compression = true;
    HiqueEngine bp_comp(&cat_comp, bcopts);
    Session bp_comp_conn = bp_comp.OpenSession();

    bench::ResultPrinter ptable({"query", "uncompressed", "compressed",
                                 "comp speedup", "pool misses (unc/comp)",
                                 "rows"});
    for (const auto& q : queries) {
      cur_sql = q.sql;
      int64_t rows_u = 0, rows_c = 0;
      exec::ExecStats st_u, st_c;
      double t_u = best(q.name, "bp-uncompressed", bp_plain_conn,
                        [&](const auto& r) {
                          rows_u = r.NumRows();
                          st_u = r.exec_stats;
                          return r.exec_stats.execute_seconds;
                        });
      double t_c = best(q.name, "bp-compressed", bp_comp_conn,
                        [&](const auto& r) {
                          rows_c = r.NumRows();
                          st_c = r.exec_stats;
                          return r.exec_stats.execute_seconds;
                        });
      if (failed) return 1;
      if (rows_u != rows_c) {
        std::printf("%s: capped-pool compressed run returned %lld rows, "
                    "uncompressed %lld\n",
                    q.name, static_cast<long long>(rows_c),
                    static_cast<long long>(rows_u));
        return 1;
      }
      char speedup[32], misses[48];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    t_c > 0 ? t_u / t_c : 0.0);
      std::snprintf(misses, sizeof(misses), "%llu / %llu",
                    static_cast<unsigned long long>(st_u.bp_misses),
                    static_cast<unsigned long long>(st_c.bp_misses));
      ptable.AddRow({q.name, bench::Sec(t_u), bench::Sec(t_c), speedup,
                     misses, std::to_string(rows_u)});
      json_capped.Add(bench::JsonObj()
                          .Str("name", q.name)
                          .Num("uncompressed_s", t_u)
                          .Num("compressed_s", t_c)
                          .Num("comp_speedup", t_c > 0 ? t_u / t_c : 0)
                          .Int("bp_misses_uncompressed",
                               static_cast<int64_t>(st_u.bp_misses))
                          .Int("bp_misses_compressed",
                               static_cast<int64_t>(st_c.bp_misses))
                          .Int("bp_evictions_uncompressed",
                               static_cast<int64_t>(st_u.bp_evictions))
                          .Int("bp_evictions_compressed",
                               static_cast<int64_t>(st_c.bp_evictions))
                          .Int("rows", rows_u)
                          .Render());
    }
    ptable.Print();
  }

  if (!json_path.empty()) {
    std::string doc = bench::JsonObj()
                          .Str("bench", "fig8_tpch")
                          .Num("scale_factor", sf)
                          .Int("repeat", repeat)
                          .Int("threads", threads)
                          .Int("simd_level", hique.simd_level())
                          .Int("hardware_threads",
                               static_cast<int64_t>(
                                   std::thread::hardware_concurrency()))
                          .Int("buffer_pages",
                               static_cast<int64_t>(buffer_pages))
                          .Add("queries", json_queries.Render())
                          .Add("kernel_micro", json_micro.Render())
                          .Add("capped_pool", json_capped.Render())
                          .Render();
    if (!bench::WriteJsonFile(json_path, doc)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
