// jits_perfbench: one workload, one seed, one run.
//
//   jits_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// --trace 0 sets the workload's database up three times (set-up time is the
// median), runs the stream through Database::Execute in a closed loop for
// --seconds (and at least until the tail percentiles have ten samples beyond
// them), then replays every statement on a reference database and compares
// answers. It prints the end-to-end metrics.
//
// --trace 1 replays a fixed-length prefix of the stream three times, each on
// its own database and taking turns chunk by chunk: through
// Database::Execute, through the composed module pipeline untraced, and
// through it again with spans around every module call. It checks that the
// three agree with each other on the exact counts and with the reference
// database on every answer, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "composed_pipeline.h"
#include "engine/database.h"
#include "span_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A percentile is reported only with at least ten samples beyond it.
constexpr size_t kMinSelects = 1000;     // select_p99_ms
constexpr size_t kMinDmlItems = 200;     // dml_p95_ms
constexpr double kMaxLoopSeconds = 90;  // a run that cannot reach them fails
// Q-error is taken over the estimates of the first kMinSelects SELECTs, a
// prefix every run completes, so it depends on the seed alone and not on how
// far a run got.
constexpr size_t kQerrorSelects = kMinSelects;
constexpr int kSetupRepeats = 3;
constexpr size_t kFailedAnswer = static_cast<size_t>(-1);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Nearest-rank percentile, q in (0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

using Counts = std::map<std::string, double>;

/// Everything one pass over the stream produced.
struct Pass {
  std::vector<size_t> answers;  // one per statement, warm-up first
  std::vector<double> select_ms;
  std::vector<double> dml_item_ms;
  std::vector<double> qerrors;
  Counts est_sources;  // estimates per est_source
  size_t items = 0;
  size_t statements = 0;
  size_t failed = 0;
  double wall_s = 0;
  double rows_touched = 0;
  double rows_out = 0;
};

/// Runs one statement; the pass decides which path (facade or composed).
using StatementFn = std::function<jits::Status(bool is_dml, const std::string& sql,
                                               StatementOutcome* out)>;

void RecordAnswer(const jits::Status& status, const StatementOutcome& outcome, Pass* pass) {
  ++pass->statements;
  if (!status.ok()) {
    ++pass->failed;
    pass->answers.push_back(kFailedAnswer);
    std::fprintf(stderr, "statement failed: %s\n", status.ToString().c_str());
    return;
  }
  pass->answers.push_back(outcome.rows);
}

/// Runs items of `stream` through `run`, adding to `pass`. With `seconds`
/// of 0 it runs `max_items` items (fewer if the stream ends). Otherwise the
/// loop is timed: it stops once `seconds` have passed and every tail
/// percentile has its samples, and returns false if the time limit or the
/// end of the stream came first.
bool Replay(Stream* stream, size_t max_items, double seconds, const StatementFn& run,
            SpanRecorder* recorder, Pass* pass) {
  const int64_t start = NowNanos();
  auto sampled = [pass] {
    return pass->select_ms.size() >= kMinSelects && pass->dml_item_ms.size() >= kMinDmlItems;
  };
  StreamItem item;
  for (size_t n = 0; n < max_items; ++n) {
    if (seconds > 0) {
      const double elapsed = Seconds(start, NowNanos());
      if (elapsed >= seconds && sampled()) break;
      if (elapsed >= kMaxLoopSeconds) return false;
    }
    if (!stream->Next(&item)) break;
    if (item.is_dml) {
      SpanRecorder::Scope span(recorder, SpanName::kDmlItem);
      const int64_t t0 = NowNanos();
      for (const std::string& sql : item.statements) {
        StatementOutcome outcome;
        RecordAnswer(run(true, sql, &outcome), outcome, pass);
      }
      pass->dml_item_ms.push_back(Seconds(t0, NowNanos()) * 1e3);
    } else {
      StatementOutcome outcome;
      const int64_t t0 = NowNanos();
      const jits::Status status = run(false, item.statements.front(), &outcome);
      pass->select_ms.push_back(Seconds(t0, NowNanos()) * 1e3);
      RecordAnswer(status, outcome, pass);
      for (const jits::QueryResult::EstimateOutcome& e : outcome.estimates) {
        pass->est_sources[e.est_source] += 1;
        if (pass->select_ms.size() > kQerrorSelects) continue;
        const double est = std::max(1.0, e.est_selectivity * e.table_rows);
        const double act = std::max(1.0, e.actual_rows);
        pass->qerrors.push_back(std::max(est / act, act / est));
      }
      pass->rows_touched += outcome.rows_touched;
      pass->rows_out += static_cast<double>(outcome.rows);
    }
    ++pass->items;
  }
  const double elapsed = Seconds(start, NowNanos());
  pass->wall_s += elapsed;
  return seconds <= 0 || (sampled() && elapsed >= seconds);
}

StatementFn FacadeRunner(jits::Database* db) {
  return [db](bool, const std::string& sql, StatementOutcome* out) {
    jits::QueryResult result;
    JITS_RETURN_IF_ERROR(db->Execute(sql, &result));
    out->rows = result.num_rows;
    out->estimates = std::move(result.estimate_outcomes);
    return jits::Status::OK();
  };
}

StatementFn ComposedRunner(ComposedPipeline* pipeline) {
  return [pipeline](bool is_dml, const std::string& sql, StatementOutcome* out) {
    return is_dml ? pipeline->Dml(sql, out) : pipeline->Select(sql, out);
  };
}

/// Snapshot of the engine counters the exact-count check compares.
struct EngineCounters {
  double tables_sampled = 0;
  double groups_measured = 0;
  double groups_materialized = 0;
  double archive_evictions = 0;
  jits::PlanCacheCounters cache;

  static EngineCounters Of(jits::Database* db) {
    EngineCounters c;
    const jits::MetricsRegistry* m = db->metrics();
    c.tables_sampled = m->CounterValue("jits.tables_sampled");
    c.groups_measured = m->CounterValue("jits.groups_measured");
    c.groups_materialized = m->CounterValue("jits.groups_materialized");
    c.archive_evictions = m->CounterValue("jits.archive.evictions");
    c.cache = db->plan_cache()->counters();
    return c;
  }
};

/// The counts that must repeat exactly for a given workload, seed and
/// replay length: every input to them is seeded and the run is
/// single-threaded.
Counts ExactCounts(jits::Database* db, const EngineCounters& before,
                   const CollectTotals* composed, const Pass& pass) {
  const EngineCounters after = EngineCounters::Of(db);
  Counts c;
  if (composed != nullptr) {
    c["core.tables_sampled"] = static_cast<double>(composed->tables_sampled);
    c["core.groups_measured"] = static_cast<double>(composed->groups_measured);
    c["core.groups_materialized"] = static_cast<double>(composed->groups_materialized);
    c["core.archive_evictions"] = static_cast<double>(composed->archive_evictions);
  } else {
    c["core.tables_sampled"] = after.tables_sampled - before.tables_sampled;
    c["core.groups_measured"] = after.groups_measured - before.groups_measured;
    c["core.groups_materialized"] = after.groups_materialized - before.groups_materialized;
    c["core.archive_evictions"] = after.archive_evictions - before.archive_evictions;
  }
  c["core.archive_buckets"] = static_cast<double>(db->archive()->total_buckets());
  c["plan_cache.hits"] = static_cast<double>(after.cache.hits - before.cache.hits);
  c["plan_cache.misses"] = static_cast<double>(after.cache.misses - before.cache.misses);
  c["plan_cache.invalidations"] =
      static_cast<double>(after.cache.invalidations - before.cache.invalidations);
  for (const auto& [source, n] : pass.est_sources) {
    c["optimizer.est_source." + source + ".count"] = n;
  }
  return c;
}

/// Replays the warm-up and the first `items` stream items on the reference
/// database and compares every answer. Returns the number of mismatching
/// statements, or -1 if the reference set-up failed.
long CheckAnswers(const WorkloadSpec& spec, uint64_t seed, size_t items,
                  const std::vector<size_t>& answers, double* general_stats_s) {
  auto ref = std::make_unique<jits::Database>(seed);
  const jits::Status status = SetupReference(seed, ref.get(), general_stats_s);
  if (!status.ok()) {
    std::fprintf(stderr, "reference set-up failed: %s\n", status.ToString().c_str());
    return -1;
  }
  Stream stream(spec, seed, items, /*with_warmup=*/true);
  StreamItem item;
  size_t i = 0;
  long mismatches = 0;
  while (stream.Next(&item)) {
    for (const std::string& sql : item.statements) {
      jits::QueryResult result;
      const jits::Status s = ref->Execute(sql, &result);
      const size_t expected = s.ok() ? result.num_rows : kFailedAnswer;
      const size_t actual = i < answers.size() ? answers[i] : kFailedAnswer;
      ++i;
      if (expected == actual) continue;
      if (mismatches < 5) {
        std::fprintf(stderr, "answer mismatch: %zu rows, reference %zu: %s\n", actual,
                     expected, sql.c_str());
      }
      ++mismatches;
    }
  }
  if (i != answers.size()) {
    std::fprintf(stderr, "%zu answers for %zu reference statements\n", answers.size(), i);
    ++mismatches;
  }
  return mismatches;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::unique_ptr<jits::Database> Setup(const WorkloadSpec& spec, uint64_t seed,
                                      SetupTimes* times, std::vector<size_t>* warmup_rows,
                                      SpanRecorder* recorder) {
  auto db = std::make_unique<jits::Database>(seed);
  if (warmup_rows != nullptr) warmup_rows->clear();
  const jits::Status status =
      SetupDatabase(spec, seed, db.get(), times, warmup_rows, recorder);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return db;
}

int RunTimed(const WorkloadSpec& spec, const Args& args) {
  const size_t max_items = static_cast<size_t>(
      static_cast<double>(spec.max_items_per_second) * args.seconds) + 4 * kMinSelects;
  Stream stream(spec, args.seed, max_items, /*with_warmup=*/false);

  std::vector<double> setup_s;
  std::vector<size_t> warmup_rows;
  std::unique_ptr<jits::Database> db;
  for (int r = 0; r < kSetupRepeats; ++r) {
    db.reset();  // one database alive at a time
    SetupTimes times;
    db = Setup(spec, args.seed, &times, &warmup_rows, nullptr);
    if (db == nullptr) return 1;
    setup_s.push_back(times.total_s);
  }

  Pass pass;
  pass.answers = warmup_rows;
  if (!Replay(&stream, SIZE_MAX, args.seconds, FacadeRunner(db.get()), nullptr, &pass)) {
    std::fprintf(stderr, "no %zu SELECTs and %zu DML items within %.0f s or %zu items\n",
                 kMinSelects, kMinDmlItems, kMaxLoopSeconds, max_items);
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  db.reset();

  double ref_stats_s = 0;
  const long mismatches =
      CheckAnswers(spec, args.seed, pass.items, pass.answers, &ref_stats_s);
  if (mismatches < 0) return 1;

  double log_sum = 0;
  for (double q : pass.qerrors) log_sum += std::log(q);
  std::fprintf(stderr,
               "%s seed=%llu: %zu items in %.2f s (%zu SELECTs, %zu DML items, %zu "
               "estimates), %ld answer mismatches\n",
               spec.name, static_cast<unsigned long long>(args.seed), pass.items,
               pass.wall_s, pass.select_ms.size(), pass.dml_item_ms.size(),
               pass.qerrors.size(), mismatches);
  PrintResult(mismatches == 0, pass.statements, pass.failed,
              {{"select_p50_ms", Percentile(pass.select_ms, 0.50), "ms"},
               {"select_p99_ms", Percentile(pass.select_ms, 0.99), "ms"},
               {"dml_p95_ms", Percentile(pass.dml_item_ms, 0.95), "ms"},
               {"throughput_ips", static_cast<double>(pass.items) / pass.wall_s, "1/s"},
               {"qerror_gmean", std::exp(log_sum / static_cast<double>(pass.qerrors.size())),
                "ratio"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", peak_rss_mb, "MB"}});
  return 0;
}

/// Compares `counts` with the record an earlier run of the same workload,
/// seed and length left in `out_dir`, or leaves one. False on a mismatch.
bool CheckCountsAcrossRuns(const Counts& counts, const std::string& path) {
  if (std::FILE* in = std::fopen(path.c_str(), "r")) {
    Counts earlier;
    char key[256];
    double value = 0;
    while (std::fscanf(in, "%255s %lf", key, &value) == 2) earlier[key] = value;
    std::fclose(in);
    if (earlier != counts) {
      std::fprintf(stderr, "exact counts differ from the earlier run recorded in %s\n",
                   path.c_str());
      return false;
    }
    return true;
  }
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    for (const auto& [key, value] : counts) std::fprintf(out, "%s %.17g\n", key.c_str(), value);
    std::fclose(out);
  }
  return true;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  // Each pass replays the warm-up through its own path, so the composed
  // pipeline also sees the compiles that fill the plan cache.
  const size_t stream_items = std::max<size_t>(
      1, static_cast<size_t>(std::lround(spec.traced_items_per_second * args.seconds)));
  const size_t items = spec.warmup_items + stream_items;

  // Pass 0: Database::Execute. Pass 1: composed, untraced. Pass 2: traced.
  // The three databases are set up first; the passes then take turns over
  // chunks of the stream, so a slow phase of the machine falls on all three
  // alike and the wall-time ratios between them stay fair.
  constexpr int kPasses = 3;
  Pass passes[kPasses];
  Counts counts[kPasses];
  std::unique_ptr<jits::Database> dbs[kPasses];
  std::unique_ptr<ComposedPipeline> pipelines[kPasses];
  StatementFn runs[kPasses];
  std::unique_ptr<Stream> streams[kPasses];
  EngineCounters before[kPasses];
  SpanRecorder recorder;
  SpanRecorder* recorders[kPasses] = {nullptr, nullptr, &recorder};
  std::vector<double> datagen_s;
  std::vector<double> general_stats_s;
  for (int p = 0; p < kPasses; ++p) {
    SetupTimes times;
    dbs[p] = Setup(spec, args.seed, &times, nullptr, recorders[p]);
    if (dbs[p] == nullptr) return 1;
    datagen_s.push_back(times.datagen_s);
    if (spec.general_stats) general_stats_s.push_back(times.general_stats_s);
    before[p] = EngineCounters::Of(dbs[p].get());
    streams[p] = std::make_unique<Stream>(spec, args.seed, stream_items, /*with_warmup=*/true);
    if (p == 0) {
      runs[p] = FacadeRunner(dbs[p].get());
    } else {
      pipelines[p] = std::make_unique<ComposedPipeline>(dbs[p].get(), recorders[p]);
      runs[p] = ComposedRunner(pipelines[p].get());
    }
  }
  const size_t chunk = std::max<size_t>(1, items / 50);
  for (size_t from = 0; from < items; from += chunk) {
    for (int p = 0; p < kPasses; ++p) {
      Replay(streams[p].get(), chunk, 0, runs[p], recorders[p], &passes[p]);
    }
  }
  for (int p = 0; p < kPasses; ++p) {
    if (p == 0) {
      counts[p] = ExactCounts(dbs[p].get(), before[p], nullptr, passes[p]);
    } else {
      const CollectTotals totals = pipelines[p]->collect_totals();
      counts[p] = ExactCounts(dbs[p].get(), before[p], &totals, passes[p]);
    }
    pipelines[p].reset();
    dbs[p].reset();
  }

  bool correct = true;
  for (int p = 1; p < 3; ++p) {
    if (counts[p] != counts[0] || passes[p].answers != passes[0].answers) {
      std::fprintf(stderr, "pass %d disagrees with the Database::Execute pass\n", p);
      correct = false;
    }
  }
  for (const auto& [key, value] : counts[2]) {
    std::fprintf(stderr, "exact %s %.0f (facade %.0f)\n", key.c_str(), value,
                 counts[0].count(key) ? counts[0].at(key) : -1.0);
  }
  correct = CheckCountsAcrossRuns(counts[2], args.out_dir + "/exact-" + spec.name + "-seed" +
                                                 std::to_string(args.seed) + "-items" +
                                                 std::to_string(items) + ".txt") &&
            correct;
  double ref_stats_s = 0;
  const long mismatches =
      CheckAnswers(spec, args.seed, stream_items, passes[2].answers, &ref_stats_s);
  if (mismatches < 0) return 1;
  correct = correct && mismatches == 0;
  general_stats_s.push_back(ref_stats_s);

  // Per-layer figures from the traced pass's spans (set-up spans excluded).
  const std::vector<SpanRecorder::Span>& spans = recorder.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<SpanName, std::vector<double>> durations_us;
  std::map<std::string, double> layer_self_ms;
  double select_ns = 0;
  double unattributed_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanName name = spans[i].name;
    if (name == SpanName::kSetupDatagen || name == SpanName::kSetupGeneralStats) continue;
    durations_us[name].push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                                 1e-3);
    if (name == SpanName::kSelect) {
      select_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      unattributed_ns += static_cast<double>(self[i]);
    }
    const std::string layer = SpanLayer(name);
    if (!layer.empty()) layer_self_ms[layer] += static_cast<double>(self[i]) * 1e-6;
  }
  auto p50_us = [&](SpanName name) { return Median(durations_us[name]); };
  double collect_total_us = 0;
  for (double us : durations_us[SpanName::kCoreCollect]) collect_total_us += us;
  const Counts& c = counts[2];
  auto count = [&](const std::string& key) { return c.count(key) ? c.at(key) : 0.0; };
  const double lookups = count("plan_cache.hits") + count("plan_cache.misses");
  double estimates = 0;
  for (const auto& [source, n] : passes[2].est_sources) estimates += n;

  auto share = [&](const char* source) {
    const double n = count(std::string("optimizer.est_source.") + source + ".count");
    return estimates > 0 ? n / estimates : 0;
  };
  const std::vector<Metric> metrics = {
      {"sql.parse_us_p50", p50_us(SpanName::kSqlParse), "us"},
      {"sql.bind_us_p50", p50_us(SpanName::kSqlBind), "us"},
      {"plan_cache.lookup_us_p50", p50_us(SpanName::kPlanCacheLookup), "us"},
      {"plan_cache.hit_ratio", lookups > 0 ? count("plan_cache.hits") / lookups : 0, "ratio"},
      {"plan_cache.hits", count("plan_cache.hits"), "count"},
      {"plan_cache.misses", count("plan_cache.misses"), "count"},
      {"plan_cache.invalidations", count("plan_cache.invalidations"), "count"},
      {"core.analyze_us_p50", p50_us(SpanName::kCoreAnalyze), "us"},
      {"core.sensitivity_us_p50", p50_us(SpanName::kCoreSensitivity), "us"},
      {"core.collect_ms_p50", p50_us(SpanName::kCoreCollect) * 1e-3, "ms"},
      {"core.collect_ms_total", collect_total_us * 1e-3, "ms"},
      {"core.tables_sampled", count("core.tables_sampled"), "count"},
      {"core.groups_measured", count("core.groups_measured"), "count"},
      {"core.groups_materialized", count("core.groups_materialized"), "count"},
      {"core.archive_buckets", count("core.archive_buckets"), "count"},
      {"core.archive_evictions", count("core.archive_evictions"), "count"},
      {"optimizer.optimize_us_p50", p50_us(SpanName::kOptimizerOptimize), "us"},
      {"optimizer.est_source.jits-exact", share("jits-exact"), "ratio"},
      {"optimizer.est_source.archive", share("archive"), "ratio"},
      {"optimizer.est_source.catalog", share("catalog"), "ratio"},
      {"optimizer.est_source.default", share("default"), "ratio"},
      {"optimizer.est_source.plan-cache", share("plan-cache"), "ratio"},
      {"exec.execute_ms_p50", p50_us(SpanName::kExecExecute) * 1e-3, "ms"},
      {"exec.rows_touched_per_row_out",
       passes[2].rows_out > 0 ? passes[2].rows_touched / passes[2].rows_out : 0, "ratio"},
      {"feedback.record_us_p50", p50_us(SpanName::kFeedbackRecord), "us"},
      {"engine.dml_stmt_us_p50", p50_us(SpanName::kEngineDmlStmt), "us"},
      {"engine.facade_ratio", passes[0].wall_s / passes[1].wall_s, "ratio"},
      {"sql.self_ms", layer_self_ms["sql"], "ms"},
      {"plan_cache.self_ms", layer_self_ms["plan_cache"], "ms"},
      {"core.self_ms", layer_self_ms["core"], "ms"},
      {"optimizer.self_ms", layer_self_ms["optimizer"], "ms"},
      {"exec.self_ms", layer_self_ms["exec"], "ms"},
      {"feedback.self_ms", layer_self_ms["feedback"], "ms"},
      {"engine.self_ms", layer_self_ms["engine"], "ms"},
      {"setup.datagen_s", Median(datagen_s), "s"},
      {"setup.general_stats_s", Median(general_stats_s), "s"},
      {"trace.unattributed_share", select_ns > 0 ? unattributed_ns / select_ns : 0, "ratio"},
      {"trace.overhead_ratio", passes[2].wall_s / passes[1].wall_s, "ratio"},
  };

  const std::string trace_path = args.out_dir + "/trace-" + spec.name + ".jsonl";
  if (!recorder.WriteJsonLines(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s seed=%llu: %zu items per pass; walls facade %.3f s, composed %.3f s, "
               "traced %.3f s; %ld answer mismatches; %zu spans in %s\n",
               spec.name, static_cast<unsigned long long>(args.seed), items,
               passes[0].wall_s, passes[1].wall_s, passes[2].wall_s, mismatches,
               spans.size(), trace_path.c_str());
  size_t attempted = 0;
  size_t failed = 0;
  for (const Pass& pass : passes) {
    attempted += pass.statements;
    failed += pass.failed;
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jits_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::RunTraced(*spec, args) : perfbench::RunTimed(*spec, args);
}
