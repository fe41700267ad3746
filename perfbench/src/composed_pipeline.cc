#include "composed_pipeline.h"

#include <variant>

#include "common/str_util.h"
#include "core/collector.h"
#include "core/query_analysis.h"
#include "core/sensitivity.h"
#include "exec/executor.h"
#include "sql/ast_printer.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using jits::Result;
using jits::Status;

ComposedPipeline::ComposedPipeline(jits::Database* db, SpanRecorder* recorder)
    : db_(db), recorder_(recorder), feedback_(db->history()), now_(db->clock()) {
  feedback_.set_metrics(&metrics_);
  feedback_.set_drift(db->drift_monitor());
}

CollectTotals ComposedPipeline::collect_totals() const {
  CollectTotals totals = totals_;
  totals.archive_evictions =
      static_cast<size_t>(metrics_.CounterValue("jits.archive.evictions"));
  return totals;
}

Status ComposedPipeline::Dml(const std::string& sql, StatementOutcome* out) {
  ++now_;
  SpanRecorder::Scope span(recorder_, SpanName::kEngineDmlStmt);
  jits::QueryResult result;
  JITS_RETURN_IF_ERROR(db_->Execute(sql, &result));
  out->rows = result.num_rows;
  return Status::OK();
}

Status ComposedPipeline::Select(const std::string& sql, StatementOutcome* out) {
  const uint64_t now = ++now_;
  SpanRecorder::Scope statement(recorder_, SpanName::kSelect);

  Result<jits::StatementAst> ast = [&] {
    SpanRecorder::Scope span(recorder_, SpanName::kSqlParse);
    return jits::ParseStatement(sql);
  }();
  if (!ast.ok()) return ast.status();
  Result<jits::BoundStatement> bound = [&] {
    SpanRecorder::Scope span(recorder_, SpanName::kSqlBind);
    return jits::Bind(ast.value(), db_->catalog());
  }();
  if (!bound.ok()) return bound.status();
  const auto* select = std::get_if<jits::SelectAst>(&ast.value());
  const auto* block = std::get_if<jits::QueryBlock>(&bound.value());
  if (select == nullptr || block == nullptr || block->IsAggregate() ||
      block->explain_only || block->explain_analyze || block->distinct ||
      block->limit >= 0 || !block->order_by.empty()) {
    return Status::InvalidArgument("composed pipeline runs plain SPJ SELECTs only: " + sql);
  }

  // Plan-cache probe, with the table generations captured before compiling.
  jits::PlanCache* cache = db_->plan_cache();
  std::string fingerprint;
  std::vector<std::pair<std::string, uint64_t>> versions;
  jits::PlanCache::CachedPlan cached;
  bool hit = false;
  {
    SpanRecorder::Scope span(recorder_, SpanName::kPlanCacheLookup);
    if (cache->enabled()) {
      fingerprint = jits::FingerprintSelect(*select);
      for (const jits::TableRef& ref : block->tables) {
        const std::string name = jits::ToLower(ref.table->name());
        bool seen = false;
        for (const auto& version : versions) seen = seen || version.first == name;
        if (!seen) versions.emplace_back(name, cache->Generation(name));
      }
      hit = cache->Lookup(fingerprint, versions, &cached);
    }
  }

  // JITS: query analysis, sensitivity analysis, collection.
  jits::QssExact exact;
  const std::vector<int> deferred;  // async collection is off
  const jits::JitsConfig& config = *db_->jits_config();
  if (!hit && config.enabled) {
    db_->archive()->set_bucket_budget(config.archive_bucket_budget);
    std::vector<jits::PredicateGroup> groups;
    {
      SpanRecorder::Scope span(recorder_, SpanName::kCoreAnalyze);
      groups = jits::AnalyzeQuery(*block, config.max_group_preds);
    }
    std::vector<jits::TableDecision> decisions;
    {
      SpanRecorder::Scope span(recorder_, SpanName::kCoreSensitivity);
      jits::SensitivityConfig sensitivity_config;
      sensitivity_config.s_max = config.s_max;
      sensitivity_config.enabled = config.sensitivity_enabled;
      jits::SensitivityAnalysis sensitivity(sensitivity_config, db_->catalog(),
                                            db_->archive(), db_->history());
      decisions = sensitivity.Analyze(*block, groups);
    }
    {
      SpanRecorder::Scope span(recorder_, SpanName::kCoreCollect);
      jits::CollectorConfig collector_config;
      collector_config.sample_rows = config.sample_rows;
      jits::StatisticsCollector collector(db_->catalog(), db_->archive(), collector_config);
      const jits::CollectionStats stats = collector.Collect(
          *block, groups, decisions, db_->rng(), now, &exact, &obs_);
      totals_.tables_sampled += stats.tables_sampled;
      totals_.groups_measured += stats.groups_measured;
      totals_.groups_materialized += stats.groups_materialized;
    }
  }

  jits::EstimationSources sources;
  sources.catalog = db_->catalog();
  sources.archive = db_->archive();
  sources.static_stats = db_->workload_stats();
  sources.exact = &exact;
  sources.now = now;
  sources.history = db_->history();
  sources.use_feedback_correction = db_->leo_correction();
  sources.deferred_tables = &deferred;

  jits::PhysicalPlan phys;
  if (hit) {
    phys.root = std::move(cached.root);
    phys.estimates = std::move(cached.estimates);
  } else {
    Result<jits::PhysicalPlan> plan = [&] {
      SpanRecorder::Scope span(recorder_, SpanName::kOptimizerOptimize);
      return optimizer_.Optimize(*block, sources, &obs_);
    }();
    if (!plan.ok()) return plan.status();
    phys = std::move(plan).value();
    if (!fingerprint.empty()) {
      SpanRecorder::Scope span(recorder_, SpanName::kPlanCacheInsert);
      cache->Insert(fingerprint, phys, versions, now);
    }
  }

  Result<jits::ExecResult> exec = [&] {
    SpanRecorder::Scope span(recorder_, SpanName::kExecExecute);
    jits::Executor executor(block, nullptr, &obs_);
    return executor.Execute(*phys.root);
  }();
  if (!exec.ok()) return exec.status();

  {
    SpanRecorder::Scope span(recorder_, SpanName::kFeedbackRecord);
    for (const jits::EstimationRecord& record : phys.estimates) {
      for (const jits::AccessObservation& ob : exec.value().observations) {
        if (ob.table_idx != record.table_idx) continue;
        feedback_.Record(record, ob.passed_rows, ob.denominator_rows);
        out->estimates.push_back({record.table_key, record.colgrp, record.est_source,
                                  record.est_selectivity, ob.passed_rows,
                                  ob.denominator_rows});
        break;
      }
    }
  }
  out->rows = exec.value().output.count();
  for (const auto& [node, rows] : exec.value().node_actuals) out->rows_touched += rows;
  return Status::OK();
}

}  // namespace perfbench
