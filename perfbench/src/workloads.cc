#include "workloads.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "workload/datagen.h"
#include "workload/workload_gen.h"

namespace perfbench {
namespace {

// name, general_stats, sensitivity, plan_cache, archive_bucket_budget,
// warmup_items, max_items_per_second, traced_items_per_second
constexpr WorkloadSpec kWorkloads[] = {
    // The paper's Figure 3 stream with JITS at its defaults.
    {"paper_stream", false, true, false, 4096, 0, 1000, 60},
    // The same stream in the paper's Table 3 mode: sample every table on
    // every SELECT. The bucket budget sits below the ~990 buckets the
    // unbounded archive reaches, so eviction runs.
    {"collect_every", false, false, false, 512, 0, 500, 30},
    // Primary-key lookups served from the plan cache, with single-row
    // UPDATEs beside them.
    {"point_hot", true, true, true, 4096, 300, 60000, 1500},
};

/// Seeds of the data and of the stream are distinct draws from `seed`.
uint64_t StreamSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 1; }

std::string PointSelect(jits::Rng* rng, int kind) {
  const jits::SchemaSizes sizes = jits::SchemaSizes::ForScale(kScale);
  switch (kind) {
    case 0:
      return jits::StrFormat(
          "SELECT name, salary FROM owner WHERE id = %lld",
          static_cast<long long>(rng->Uniform(1, static_cast<int64_t>(sizes.owner))));
    case 1:
      return jits::StrFormat(
          "SELECT make, model, price FROM car WHERE id = %lld",
          static_cast<long long>(rng->Uniform(1, static_cast<int64_t>(sizes.car))));
    default:
      return jits::StrFormat(
          "SELECT o.name, c.price FROM car c, owner o WHERE c.ownerid = o.id AND c.id = %lld",
          static_cast<long long>(rng->Uniform(1, static_cast<int64_t>(sizes.car))));
  }
}

StreamItem PointHotItem(jits::Rng* rng) {
  const jits::SchemaSizes sizes = jits::SchemaSizes::ForScale(kScale);
  StreamItem item;
  if (rng->Chance(0.1)) {
    item.is_dml = true;
    const double salary = rng->UniformDouble(1000, 12000);
    item.statements.push_back(jits::StrFormat(
        "UPDATE owner SET salary = %.0f WHERE id = %lld", salary,
        static_cast<long long>(rng->Uniform(1, static_cast<int64_t>(sizes.owner)))));
  } else {
    item.statements.push_back(PointSelect(rng, static_cast<int>(rng->Uniform(0, 2))));
  }
  return item;
}

/// The untimed SELECTs that end set-up (all read-only).
std::vector<std::string> WarmupStatements(const WorkloadSpec& spec, uint64_t seed) {
  jits::Rng rng(StreamSeed(seed) ^ 0x5bd1e995ULL);
  std::vector<std::string> statements;
  for (size_t i = 0; i < spec.warmup_items; ++i) {
    statements.push_back(PointSelect(&rng, static_cast<int>(i % 3)));
  }
  return statements;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Stream::Stream(const WorkloadSpec& spec, uint64_t seed, size_t max_items, bool with_warmup)
    : rng_(StreamSeed(seed)) {
  if (with_warmup) {
    for (std::string& sql : WarmupStatements(spec, seed)) {
      items_.push_back({{std::move(sql)}, false});
    }
  }
  if (std::string(spec.name) == "point_hot") {
    point_hot_left_ = max_items;
    return;
  }
  jits::WorkloadConfig config;
  config.num_items = max_items;
  config.update_fraction = 0.25;
  config.scale = kScale;
  config.seed = StreamSeed(seed);
  for (jits::WorkloadItem& w : jits::GenerateWorkload(config)) {
    items_.push_back({std::move(w.statements), w.is_update});
  }
}

bool Stream::Next(StreamItem* item) {
  if (next_ < items_.size()) {
    *item = std::move(items_[next_++]);
    return true;
  }
  if (point_hot_left_ == 0) return false;
  --point_hot_left_;
  *item = PointHotItem(&rng_);
  return true;
}

jits::Status SetupDatabase(const WorkloadSpec& spec, uint64_t seed, jits::Database* db,
                           SetupTimes* times, std::vector<size_t>* warmup_rows,
                           SpanRecorder* recorder) {
  const int64_t t0 = NowNanos();
  db->set_row_limit(0);  // the benchmark counts result rows, it does not fetch them
  {
    SpanRecorder::Scope span(recorder, SpanName::kSetupDatagen);
    jits::DataGenConfig config;
    config.scale = kScale;
    config.seed = seed;
    JITS_RETURN_IF_ERROR(jits::GenerateCarDatabase(db, config));
  }
  const int64_t t1 = NowNanos();
  if (spec.general_stats) {
    SpanRecorder::Scope span(recorder, SpanName::kSetupGeneralStats);
    JITS_RETURN_IF_ERROR(db->CollectGeneralStats());
  }
  const int64_t t2 = NowNanos();
  jits::JitsConfig* jits = db->jits_config();
  jits->enabled = true;
  jits->sensitivity_enabled = spec.sensitivity;
  jits->archive_bucket_budget = spec.archive_bucket_budget;
  if (spec.plan_cache) JITS_RETURN_IF_ERROR(db->Execute("SET plan_cache.enabled = true"));
  if (warmup_rows != nullptr) {
    for (const std::string& sql : WarmupStatements(spec, seed)) {
      jits::QueryResult result;
      JITS_RETURN_IF_ERROR(db->Execute(sql, &result));
      warmup_rows->push_back(result.num_rows);
    }
  }
  const int64_t t3 = NowNanos();
  times->datagen_s = static_cast<double>(t1 - t0) * 1e-9;
  times->general_stats_s = static_cast<double>(t2 - t1) * 1e-9;
  times->total_s = static_cast<double>(t3 - t0) * 1e-9;
  return jits::Status::OK();
}

jits::Status SetupReference(uint64_t seed, jits::Database* db, double* general_stats_s) {
  db->set_row_limit(0);
  jits::DataGenConfig config;
  config.scale = kScale;
  config.seed = seed;
  JITS_RETURN_IF_ERROR(jits::GenerateCarDatabase(db, config));
  const int64_t t0 = NowNanos();
  JITS_RETURN_IF_ERROR(db->CollectGeneralStats());
  *general_stats_s = static_cast<double>(NowNanos() - t0) * 1e-9;
  return jits::Status::OK();
}

}  // namespace perfbench
