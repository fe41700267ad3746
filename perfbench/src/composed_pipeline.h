// The statement pipeline of Database::Execute, composed from the engine
// modules' public functions so the traced run can time each call from the
// benchmark's own code:
//
//   ParseStatement → Bind → PlanCache probe → AnalyzeQuery →
//   SensitivityAnalysis → StatisticsCollector → Optimizer → Executor →
//   FeedbackSystem
//
// It runs on a Database's own state (catalog, archive, history, plan cache,
// drift monitor, RNG), so it follows the facade's decisions exactly; the run
// checks that by comparing exact counts against a Database::Execute replay.
// DML goes through Database::Execute. Scope: plain SPJ SELECTs with JITS
// inline (no async collection, no re-optimization, no result shaping), which
// is every SELECT the benchmark's workloads issue.
#ifndef PERFBENCH_COMPOSED_PIPELINE_H_
#define PERFBENCH_COMPOSED_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "feedback/feedback.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "span_trace.h"

namespace perfbench {

/// What one statement produced, whichever path ran it.
struct StatementOutcome {
  size_t rows = 0;          // result rows (SELECT) or affected rows (DML)
  double rows_touched = 0;  // composed SELECT: sum of every operator's actual rows
  std::vector<jits::QueryResult::EstimateOutcome> estimates;
};

/// JITS collection totals of the SELECTs a pipeline compiled.
struct CollectTotals {
  size_t tables_sampled = 0;
  size_t groups_measured = 0;
  size_t groups_materialized = 0;
  size_t archive_evictions = 0;
};

class ComposedPipeline {
 public:
  /// `recorder` is nullable: without one the same calls run untimed.
  ComposedPipeline(jits::Database* db, SpanRecorder* recorder);

  jits::Status Select(const std::string& sql, StatementOutcome* out);
  jits::Status Dml(const std::string& sql, StatementOutcome* out);

  CollectTotals collect_totals() const;

 private:
  jits::Database* db_;
  SpanRecorder* recorder_;
  jits::MetricsRegistry metrics_;
  jits::ObsContext obs_{&metrics_, nullptr, nullptr};
  jits::FeedbackSystem feedback_;
  jits::Optimizer optimizer_;
  CollectTotals totals_;
  /// Mirrors the facade's logical clock: one tick per statement.
  uint64_t now_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMPOSED_PIPELINE_H_
