// gpudb_server: the resident query server (serve/server.h) as a process.
//
// Generates the TPC-H tables, uploads them device-resident (encoded by
// default), and serves queries over a UNIX domain socket until a client
// sends shutdown or the process receives SIGINT/SIGTERM.
//
// Each query's optimized plan is prepared by the first request for it and
// reused by every later one.
//
//   gpudb_server --socket=/tmp/gpudb.sock [--sf=0.01] [--seed=42]
//                [--backend=Handwritten] [--clients=4] [--queue-capacity=64]
//                [--no-encoding] [--no-governor]

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/registry.h"
#include "serve/server.h"

namespace {

serve::QueryServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-unsafe in principle, but Stop() only runs pthread/socket
  // teardown; good enough for a dev-tool Ctrl-C. The clean path is the
  // protocol's shutdown message.
  if (g_server != nullptr) std::exit(0);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH [--sf=F] [--seed=N] [--backend=NAME]\n"
      "          [--clients=N] [--queue-capacity=N]\n"
      "          [--no-encoding] [--no-governor]\n",
      argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--socket=")) {
      options.socket_path = v;
    } else if (const char* v = value("--sf=")) {
      options.catalog.scale_factor = std::atof(v);
    } else if (const char* v = value("--seed=")) {
      options.catalog.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--backend=")) {
      options.catalog.backend = v;
    } else if (const char* v = value("--clients=")) {
      options.num_clients = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = value("--queue-capacity=")) {
      options.queue_capacity = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--no-encoding") {
      options.catalog.use_encoding = false;
    } else if (arg == "--no-governor") {
      options.use_governor = false;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) return Usage(argv[0]);

  try {
    core::RegisterBuiltinBackends();
    serve::QueryServer server(options);
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    server.Start();
    const serve::StatsReply stats = server.Stats();
    std::printf(
        "gpudb_server: serving on %s (sf=%g seed=%llu backend=%s "
        "encoding=%s clients=%u resident=%.2f MiB uploaded=%.2f MiB)\n",
        options.socket_path.c_str(), options.catalog.scale_factor,
        static_cast<unsigned long long>(options.catalog.seed),
        options.catalog.backend.c_str(),
        options.catalog.use_encoding ? "on" : "off", options.num_clients,
        stats.resident_bytes / (1024.0 * 1024.0),
        stats.uploaded_bytes / (1024.0 * 1024.0));
    std::fflush(stdout);
    server.WaitForShutdown();
    const serve::StatsReply final_stats = server.Stats();
    server.Stop();
    std::printf(
        "gpudb_server: shutting down after %llu queries "
        "(%llu rejected, %llu failed, %llu/%llu prepared-plan hits)\n",
        static_cast<unsigned long long>(final_stats.queries),
        static_cast<unsigned long long>(final_stats.rejected),
        static_cast<unsigned long long>(final_stats.failed),
        static_cast<unsigned long long>(final_stats.cache_hits),
        static_cast<unsigned long long>(final_stats.cache_hits +
                                        final_stats.cache_misses));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudb_server: %s\n", e.what());
    return 3;
  }
}
