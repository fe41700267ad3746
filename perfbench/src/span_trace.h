// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around each call into an
// engine module's public function (the engine itself is not instrumented for
// this). Each span has a name, a start, an end and the index of the span that
// was open when it started; the whole set stays in memory and is written out
// once, when the run ends.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span name the benchmark records. The text before the first '.' is
/// the layer the span's self time is charged to.
enum class SpanName : uint8_t {
  kSelect,             // one SELECT, parent of its layer spans
  kDmlItem,            // one DML batch, parent of its statements
  kSqlParse,           // ParseStatement
  kSqlBind,            // Bind
  kPlanCacheLookup,    // PlanCache::enabled / FingerprintSelect / Lookup
  kPlanCacheInsert,    // PlanCache::Insert
  kCoreAnalyze,        // AnalyzeQuery
  kCoreSensitivity,    // SensitivityAnalysis::Analyze
  kCoreCollect,        // StatisticsCollector::Collect
  kOptimizerOptimize,  // Optimizer::Optimize
  kExecExecute,        // Executor::Execute
  kFeedbackRecord,     // FeedbackSystem::Record, for every estimate
  kEngineDmlStmt,      // Database::Execute of one DML statement
  kSetupDatagen,       // GenerateCarDatabase
  kSetupGeneralStats,  // Database::CollectGeneralStats
};

const char* SpanNameText(SpanName name);
/// The layer a span belongs to ("sql", "core", ...); empty for the
/// statement-level parent spans.
std::string SpanLayer(SpanName name);

class SpanRecorder {
 public:
  struct Span {
    SpanName name = SpanName::kSelect;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span. A null recorder records nothing, so untraced passes run the
  /// same code with no clock reads.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, SpanName name) : recorder_(recorder) {
      if (recorder_ != nullptr) index_ = recorder_->Open(name);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span ({"name","start_ns","end_ns","parent"},
  /// times relative to the first span). Returns false if the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int32_t Open(SpanName name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNanos();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNanos();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Self time of every span: its duration minus the part its direct children
/// cover (children of one span never overlap in this single-threaded run).
std::vector<int64_t> SelfTimes(const std::vector<SpanRecorder::Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
