#include "span_trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kSelect: return "select";
    case SpanName::kDmlItem: return "dml_item";
    case SpanName::kSqlParse: return "sql.parse";
    case SpanName::kSqlBind: return "sql.bind";
    case SpanName::kPlanCacheLookup: return "plan_cache.lookup";
    case SpanName::kPlanCacheInsert: return "plan_cache.insert";
    case SpanName::kCoreAnalyze: return "core.analyze";
    case SpanName::kCoreSensitivity: return "core.sensitivity";
    case SpanName::kCoreCollect: return "core.collect";
    case SpanName::kOptimizerOptimize: return "optimizer.optimize";
    case SpanName::kExecExecute: return "exec.execute";
    case SpanName::kFeedbackRecord: return "feedback.record";
    case SpanName::kEngineDmlStmt: return "engine.dml_stmt";
    case SpanName::kSetupDatagen: return "setup.datagen";
    case SpanName::kSetupGeneralStats: return "setup.general_stats";
  }
  return "unknown";
}

std::string SpanLayer(SpanName name) {
  const std::string text = SpanNameText(name);
  const size_t dot = text.find('.');
  return dot == std::string::npos ? std::string() : text.substr(0, dot);
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(out, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                 SpanNameText(s.name), static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base), s.parent);
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace perfbench
