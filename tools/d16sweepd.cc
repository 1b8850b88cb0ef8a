/**
 * @file
 * d16sweepd — the sweep engine as a persistent service.
 *
 * Listens on a Unix socket for batched sweep requests (protocol.hh),
 * shards each request's job list across a pool of concurrent sweep
 * engines sharing one content-addressed artifact store, and streams
 * result rows back as they land. Because the server process outlives
 * requests, repeated sweeps hit its in-memory result cache; with
 * --store they also survive server restarts.
 *
 *   d16sweepd --socket /tmp/d16.sock                 serve, 1 shard
 *   d16sweepd --socket S --store DIR --shards 4      4 lanes + store
 *   d16sweepd --socket S --jobs 2 --shards 4         2 threads per lane
 *
 * Stop it with `d16sweep --connect SOCK --shutdown` (or SIGTERM).
 * Total worker threads = jobs x shards; the default splits the
 * machine's hardware concurrency across 4 shards.
 *
 * Exit status: 0 after a clean shutdown request, 2 on bad usage or a
 * socket/store setup failure.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/service/server.hh"
#include "support/cli.hh"
#include "support/error.hh"
#include "support/parallel.hh"

int
main(int argc, char **argv)
{
    using namespace d16sim;
    using namespace d16sim::core;

    service::ServerConfig cfg;
    const int hw = hardwareThreads();
    cfg.shards = std::min(4, hw);
    cfg.jobs = std::max(1, hw / cfg.shards);

    cli::Cli parser("d16sweepd",
                    "--socket PATH [--store DIR] [--jobs N] [--shards N]");
    parser.stringValue("--socket", &cfg.socketPath);
    parser.stringValue("--store", &cfg.storeDir);
    parser.value("--jobs", [&](const std::string &v) {
        cfg.jobs = std::max(1, std::atoi(v.c_str()));
        return true;
    });
    parser.value("--shards", [&](const std::string &v) {
        cfg.shards = std::max(1, std::atoi(v.c_str()));
        return true;
    });
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }
    if (cfg.socketPath.empty()) {
        std::fprintf(stderr, "d16sweepd: --socket PATH is required\n");
        return 2;
    }

    try {
        service::SweepServer server(cfg);
        std::fprintf(stderr,
                     "d16sweepd: listening on %s (%d shards x %d "
                     "threads%s%s)\n",
                     cfg.socketPath.c_str(), cfg.shards, cfg.jobs,
                     cfg.storeDir.empty() ? "" : ", store ",
                     cfg.storeDir.c_str());
        server.serve();
        std::fprintf(stderr, "d16sweepd: shutdown requested, exiting\n");
    } catch (const Error &e) {
        std::fprintf(stderr, "d16sweepd: %s\n", e.what());
        return 2;
    }
    return 0;
}
