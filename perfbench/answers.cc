#include "answers.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "tpch/datagen.h"

namespace perfbench {

HostTables GenerateTables(double scale_factor, uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  HostTables t;
  t.lineitem = tpch::GenerateLineitem(config);
  t.orders = tpch::GenerateOrders(config);
  t.customer = tpch::GenerateCustomer(config);
  t.part = tpch::GeneratePart(config);
  return t;
}

References ComputeReferences(const HostTables& t) {
  References ref;
  ref.q1 = tpch::ReferenceQ1(t.lineitem);
  ref.q3 = tpch::ReferenceQ3(t.customer, t.orders, t.lineitem);
  ref.q4 = tpch::ReferenceQ4(t.orders, t.lineitem);
  ref.q6 = tpch::ReferenceQ6(t.lineitem);
  ref.q14 = tpch::ReferenceQ14(t.part, t.lineitem);
  return ref;
}

namespace {

bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-6;
}

bool Q1RowMatches(const tpch::Q1Row& g, const tpch::Q1Row& w) {
  return g.returnflag == w.returnflag && g.linestatus == w.linestatus &&
         g.count_order == w.count_order && Near(g.sum_qty, w.sum_qty) &&
         Near(g.sum_base_price, w.sum_base_price) &&
         Near(g.sum_disc_price, w.sum_disc_price) &&
         Near(g.sum_charge, w.sum_charge) && Near(g.avg_qty, w.avg_qty) &&
         Near(g.avg_price, w.avg_price) && Near(g.avg_disc, w.avg_disc);
}

template <typename Row, typename Match>
bool RowsMatch(const char* name, const std::vector<Row>& got,
               const std::vector<Row>& want, Match match, std::string* why) {
  if (got.size() != want.size()) {
    *why = std::string(name) + ": " + std::to_string(got.size()) +
           " rows, reference has " + std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!match(got[i], want[i])) {
      *why = std::string(name) + ": row " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

/// FNV-1a over raw bytes.
void Mix(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

template <typename T>
void MixValue(uint64_t& h, const T& v) {
  Mix(h, &v, sizeof(v));
}

}  // namespace

bool Verify(plan::TpchQuery query, const plan::TpchQueryResult& got,
            const References& ref, std::string* why) {
  switch (query) {
    case plan::TpchQuery::kQ1:
      return RowsMatch("q1", got.q1, ref.q1, Q1RowMatches, why);
    case plan::TpchQuery::kQ3:
      return RowsMatch(
          "q3", got.q3, ref.q3,
          [](const tpch::Q3Row& g, const tpch::Q3Row& w) {
            return g.orderkey == w.orderkey && Near(g.revenue, w.revenue);
          },
          why);
    case plan::TpchQuery::kQ4:
      return RowsMatch(
          "q4", got.q4, ref.q4,
          [](const tpch::Q4Row& g, const tpch::Q4Row& w) {
            return g.orderpriority == w.orderpriority &&
                   g.order_count == w.order_count;
          },
          why);
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14: {
      const double want = query == plan::TpchQuery::kQ6 ? ref.q6 : ref.q14;
      if (Near(got.scalar, want)) return true;
      std::ostringstream os;
      os.precision(17);
      os << plan::TpchQueryName(query) << ": " << got.scalar
         << ", reference " << want;
      *why = os.str();
      return false;
    }
  }
  *why = "unknown query";
  return false;
}

uint64_t AnswerBits(plan::TpchQuery query, const plan::TpchQueryResult& got) {
  uint64_t h = 1469598103934665603ull;
  switch (query) {
    case plan::TpchQuery::kQ1:
      for (const tpch::Q1Row& r : got.q1) {
        MixValue(h, r.returnflag);
        MixValue(h, r.linestatus);
        MixValue(h, r.sum_qty);
        MixValue(h, r.sum_base_price);
        MixValue(h, r.sum_disc_price);
        MixValue(h, r.sum_charge);
        MixValue(h, r.avg_qty);
        MixValue(h, r.avg_price);
        MixValue(h, r.avg_disc);
        MixValue(h, r.count_order);
      }
      break;
    case plan::TpchQuery::kQ3:
      for (const tpch::Q3Row& r : got.q3) {
        MixValue(h, r.orderkey);
        MixValue(h, r.revenue);
      }
      break;
    case plan::TpchQuery::kQ4:
      for (const tpch::Q4Row& r : got.q4) {
        MixValue(h, r.orderpriority);
        MixValue(h, r.order_count);
      }
      break;
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14:
      MixValue(h, got.scalar);
      break;
  }
  return h;
}

void SimLedger::Note(const PairKey& key, uint64_t simulated_ns) {
  const auto [it, inserted] = first_.emplace(key, simulated_ns);
  if (!inserted && it->second != simulated_ns) {
    errors_.push_back(key.first + " " + key.second + ": simulated " +
                      std::to_string(simulated_ns) + " ns, earlier " +
                      std::to_string(it->second) + " ns in this run");
  }
}

bool SimLedger::Check(const std::string& path) {
  std::ifstream in(path);
  if (in) {
    std::string library, query;
    uint64_t ns = 0;
    while (in >> library >> query >> ns) {
      const auto it = first_.find({library, query});
      if (it != first_.end() && it->second != ns) {
        errors_.push_back(library + " " + query + ": simulated " +
                          std::to_string(it->second) + " ns, " + path +
                          " has " + std::to_string(ns) + " ns");
      }
    }
  } else if (!path.empty()) {
    std::ofstream out(path);
    for (const auto& [key, ns] : first_) {
      out << key.first << ' ' << key.second << ' ' << ns << '\n';
    }
  }
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "perfbench: simulated time not deterministic: %s\n",
                 e.c_str());
  }
  return errors_.empty();
}

double SimLedger::GeoMeanMs(const std::string& library) const {
  std::vector<double> ms;
  for (const auto& [key, ns] : first_) {
    if (library.empty() || key.first == library) {
      ms.push_back(static_cast<double>(ns) / 1e6);
    }
  }
  return GeoMean(ms);
}

void DriftLedger::Note(const PairKey& key, uint64_t bits, bool counted) {
  const auto [it, inserted] = baseline_.emplace(key, bits);
  if (!counted) return;
  ++counted_;
  if (!inserted && it->second != bits) ++drifted_;
}

}  // namespace perfbench
