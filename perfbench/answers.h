// Answer checking for the repo benchmark.
//
// Every operation's answer is compared with the host reference
// (tpch::Reference*) computed before the clock starts: keys and counts must
// match exactly, floats within a relative 1e-9 (the tolerance bench_serving
// uses). Two ledgers ride along:
//   * SimLedger holds the simulated ns of each (library, query). Simulated
//     time is the paper's currency and must be a pure function of the input,
//     so any two runs of one pair that disagree — in this run, or against
//     the golden file an earlier run of the same seed and build wrote — fail
//     the benchmark.
//   * DriftLedger measures how many answers differ bit-wise from the first
//     answer of their (library, query). Atomic-ticket compaction makes float
//     sums depend on the host schedule today; this is reported, not failed.
#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "plan/partition.h"
#include "storage/table.h"
#include "tpch/queries.h"

namespace perfbench {

/// The four TPC-H tables the five queries read, generated host-side.
struct HostTables {
  storage::Table lineitem;
  storage::Table orders;
  storage::Table customer;
  storage::Table part;

  plan::TpchHostTables view() const {
    return {&lineitem, &orders, &customer, &part};
  }
};

/// Runs tpch::Generate* for the four tables.
HostTables GenerateTables(double scale_factor, uint64_t seed);

struct References {
  std::vector<tpch::Q1Row> q1;
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  double q6 = 0;
  double q14 = 0;
};

References ComputeReferences(const HostTables& tables);

/// True when `got` matches the reference; otherwise `why` says where not.
bool Verify(plan::TpchQuery query, const plan::TpchQueryResult& got,
            const References& ref, std::string* why);

/// Hash of the exact bits of the answer (floats included).
uint64_t AnswerBits(plan::TpchQuery query, const plan::TpchQueryResult& got);

/// A (library, query) pair, the unit simulated time is keyed by.
using PairKey = std::pair<std::string, std::string>;

class SimLedger {
 public:
  /// Records one run of a pair; a value that differs from the first one
  /// recorded for that pair is a determinism failure.
  void Note(const PairKey& key, uint64_t simulated_ns);

  /// Compares with the golden file at `path` (writing it when missing; no
  /// file when `path` is empty), reports every mismatch on stderr, and
  /// returns true when simulated time was deterministic.
  bool Check(const std::string& path);

  /// Geometric mean of simulated ms over the pairs (optionally only those
  /// of one library).
  double GeoMeanMs(const std::string& library = "") const;

 private:
  std::map<PairKey, uint64_t> first_;
  std::vector<std::string> errors_;
};

class DriftLedger {
 public:
  /// Sets the pair's baseline if it has none; otherwise counts the answer.
  void Note(const PairKey& key, uint64_t bits, bool counted);
  double DriftShare() const {
    return counted_ == 0 ? 0.0 : static_cast<double>(drifted_) /
                                     static_cast<double>(counted_);
  }

 private:
  std::map<PairKey, uint64_t> baseline_;
  uint64_t counted_ = 0;
  uint64_t drifted_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
