// gpudb_client: CLI client for gpudb_server.
//
//   gpudb_client --socket=/tmp/gpudb.sock q6 q1 q3     # run queries
//   gpudb_client --socket=/tmp/gpudb.sock --stats      # server counters
//   gpudb_client --socket=/tmp/gpudb.sock --shutdown   # stop the server
//
// Options: --tenant=NAME (default "cli"), --class=interactive|batch|besteffort
// (default interactive), --repeat=N (run the query list N times),
// --retry[=SEED] (sleep out kOverloaded sheds per the server's retry-after
// hint with seeded capped backoff instead of reporting them).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "serve/client.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--tenant=NAME] [--class=CLASS]\n"
               "          [--repeat=N] [--retry[=SEED]] [--stats]\n"
               "          [--shutdown] [QUERY...]\n"
               "       QUERY: q1 | q3 | q4 | q6 | q14\n",
               argv0);
  return 64;
}

void PrintReply(const std::string& query, const serve::QueryReply& reply) {
  if (reply.overloaded) {
    std::printf("%-4s OVERLOADED (shed)  retry after %llu ms\n", query.c_str(),
                static_cast<unsigned long long>(reply.retry_after_ms));
    return;
  }
  if (reply.rejected) {
    std::printf("%-4s REJECTED (admission)  queue_wait %.3f ms\n",
                query.c_str(), reply.queue_wait_ms);
    return;
  }
  std::printf("%-4s %s  sim %.3f ms  wall %.3f ms  queue %.3f ms%s\n",
              query.c_str(), reply.cache_hit ? "hit " : "miss",
              reply.simulated_ns / 1e6, reply.wall_ms, reply.queue_wait_ms,
              reply.aged ? "  [aged]" : "");
  switch (reply.query) {
    case plan::TpchQuery::kQ1:
      for (const tpch::Q1Row& r : reply.result.q1) {
        std::printf("  rf=%d ls=%d sum_qty=%.2f sum_price=%.2f count=%lld\n",
                    r.returnflag, r.linestatus, r.sum_qty, r.sum_base_price,
                    static_cast<long long>(r.count_order));
      }
      break;
    case plan::TpchQuery::kQ3:
      for (const tpch::Q3Row& r : reply.result.q3) {
        std::printf("  orderkey=%d revenue=%.2f\n", r.orderkey, r.revenue);
      }
      break;
    case plan::TpchQuery::kQ4:
      for (const tpch::Q4Row& r : reply.result.q4) {
        std::printf("  priority=%d orders=%lld\n", r.orderpriority,
                    static_cast<long long>(r.order_count));
      }
      break;
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14:
      std::printf("  result=%.4f\n", reply.result.scalar);
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tenant = "cli";
  std::string cls_name = "interactive";
  int repeat = 1;
  bool retry = false;
  serve::RetryOptions retry_options;
  bool want_stats = false;
  bool want_shutdown = false;
  std::vector<std::string> queries;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--socket=")) {
      socket_path = v;
    } else if (const char* v = value("--tenant=")) {
      tenant = v;
    } else if (const char* v = value("--class=")) {
      cls_name = v;
    } else if (const char* v = value("--repeat=")) {
      repeat = std::atoi(v);
    } else if (const char* v = value("--retry=")) {
      retry = true;
      retry_options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--retry") {
      retry = true;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--shutdown") {
      want_shutdown = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      queries.push_back(arg);
    }
  }
  if (socket_path.empty() ||
      (queries.empty() && !want_stats && !want_shutdown)) {
    return Usage(argv[0]);
  }

  try {
    serve::Client client(socket_path, tenant,
                         serve::ParseTenantClass(cls_name));
    const serve::HelloReply& hello = client.hello();
    std::fprintf(stderr,
                 "connected: sf=%g seed=%llu backend=%s encoding=%s\n",
                 hello.scale_factor,
                 static_cast<unsigned long long>(hello.seed),
                 hello.backend.c_str(), hello.encoded ? "on" : "off");
    for (int round = 0; round < repeat; ++round) {
      for (const std::string& q : queries) {
        PrintReply(q, retry ? client.QueryWithRetry(q, retry_options)
                            : client.Query(q));
      }
    }
    if (retry && client.retries() > 0) {
      std::fprintf(stderr, "retried through %llu shed(s)\n",
                   static_cast<unsigned long long>(client.retries()));
    }
    if (want_stats) {
      const serve::StatsReply s = client.Stats();
      std::printf(
          "queries=%llu rejected=%llu failed=%llu overloaded=%llu "
          "cache_hits=%llu cache_misses=%llu cache_size=%llu "
          "resident_bytes=%llu generation=%llu\n",
          static_cast<unsigned long long>(s.queries),
          static_cast<unsigned long long>(s.rejected),
          static_cast<unsigned long long>(s.failed),
          static_cast<unsigned long long>(s.overloaded),
          static_cast<unsigned long long>(s.cache_hits),
          static_cast<unsigned long long>(s.cache_misses),
          static_cast<unsigned long long>(s.cache_size),
          static_cast<unsigned long long>(s.resident_bytes),
          static_cast<unsigned long long>(s.catalog_generation));
    }
    if (want_shutdown) client.Shutdown();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudb_client: %s\n", e.what());
    return 3;
  }
}
