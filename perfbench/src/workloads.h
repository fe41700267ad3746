// The benchmark's three single-client workloads over the paper's
// car-insurance schema, and the database set-up each one runs on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/database.h"
#include "span_trace.h"

namespace perfbench {

/// One closed-loop item: a single SELECT, or a DML batch of one or more
/// statements timed as a whole.
struct StreamItem {
  std::vector<std::string> statements;
  bool is_dml = false;
};

struct WorkloadSpec {
  const char* name;
  /// Setup collects general (RUNSTATS) statistics on every table.
  bool general_stats;
  /// JITS sensitivity analysis; false samples every table and materializes
  /// every group on every SELECT (the paper's Table 3 mode).
  bool sensitivity;
  bool plan_cache;
  size_t archive_bucket_budget;
  /// Untimed SELECTs run at the end of set-up (builds lazy hash indexes,
  /// fills the plan cache).
  size_t warmup_items;
  /// Upper bound on the closed loop's rate; sizes the pre-generated Figure 3
  /// stream (point_hot's is generated item by item).
  size_t max_items_per_second;
  /// Items per `--seconds` second replayed by each pass of the traced run.
  double traced_items_per_second;
};

/// Scale of the car-insurance data: car 143k, owner 100k, demographics 100k
/// and accidents 429k rows.
inline constexpr double kScale = 0.1;

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's statement stream for one seed, produced item by item so a
/// run holds no more of it in memory than the Figure 3 generator needs. Two
/// streams made with the same arguments produce the same items.
class Stream {
 public:
  /// At most `max_items` stream items, preceded by the warm-up SELECTs (as
  /// single-statement items) when `with_warmup`.
  Stream(const WorkloadSpec& spec, uint64_t seed, size_t max_items, bool with_warmup);

  /// Moves the next item into `item`; false once the stream is exhausted.
  bool Next(StreamItem* item);

 private:
  std::vector<StreamItem> items_;  // warm-up, then any pre-generated items
  size_t next_ = 0;
  size_t point_hot_left_ = 0;  // point_hot items still to generate
  jits::Rng rng_;
};

struct SetupTimes {
  double datagen_s = 0;
  double general_stats_s = 0;  // 0 when the workload's set-up has none
  double total_s = 0;
};

/// Builds the database a workload runs on: data from `seed`, statistics,
/// the JITS and plan-cache settings, then the warm-up. `warmup_rows`
/// receives each warm-up statement's result-row count; when it is null the
/// warm-up is skipped and left to the caller. `recorder` (nullable)
/// receives the set-up spans.
jits::Status SetupDatabase(const WorkloadSpec& spec, uint64_t seed, jits::Database* db,
                           SetupTimes* times, std::vector<size_t>* warmup_rows,
                           SpanRecorder* recorder);

/// Builds the reference database for the answer check: the same data,
/// general statistics, JITS off and the plan cache off, so it plans
/// differently and must answer identically. `general_stats_s` receives the
/// time of its general-statistics pass.
jits::Status SetupReference(uint64_t seed, jits::Database* db, double* general_stats_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
