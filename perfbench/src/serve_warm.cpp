// serve_warm: a netloc::serve::Daemon on the in-process listener with
// a result cache that set-up fills. Two closed-loop clients submit
// warm requests, each repeating the whole catalog under a seed of its
// own, so their jobs share no cache key and coalescing never makes the
// amount of work depend on timing. Measures the frame/JSON codec, the
// job queue and cache reads; topology and metric kernels never run.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "netloc/analysis/export.hpp"
#include "netloc/common/thread_pool.hpp"
#include "netloc/engine/result_cache.hpp"
#include "netloc/engine/sweep.hpp"
#include "netloc/serve/client.hpp"
#include "netloc/serve/daemon.hpp"
#include "netloc/serve/protocol.hpp"
#include "netloc/serve/transport.hpp"
#include "netloc/workloads/catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = netloc::serve;

namespace {

/// Each client repeats one request, every "APP" selector of the
/// catalog (41 Table 3 rows), under the run's seed plus its index. A
/// submit of 41 rows keeps its own work (cache reads, CSV, frame codec)
/// well above the daemon's thread hand-offs, whose wake-up latency
/// follows the host's load rather than the program: with 10- and
/// 20-row submits of disjoint catalog halves, throughput spread 0.14 to
/// 0.23 between runs of the same code, with the whole catalog 0.10.
constexpr int kClients = 2;
/// Submits per client per round.
constexpr int kRoundSubmits = 250;
/// A round takes about this long here.
constexpr double kNominalRoundS = 1.25;
/// Submits of the traced replay.
constexpr int kReplaySubmits = 1000;
constexpr int kSetupRepetitions = 3;

std::uint64_t client_seed(const Options& options, int client) {
  return options.seed + static_cast<std::uint64_t>(client);
}

/// The catalog's entries in the order the daemon resolves the request.
std::vector<netloc::workloads::CatalogEntry> request_entries() {
  std::vector<netloc::workloads::CatalogEntry> entries;
  for (const auto& app : netloc::workloads::catalog_apps()) {
    const auto rows = netloc::workloads::catalog_for(app);
    entries.insert(entries.end(), rows.begin(), rows.end());
  }
  return entries;
}

fs::path cache_dir(const Options& options) {
  return options.workdir / "serve-cache";
}

fs::path reference_path(const Options& options, int client) {
  return options.workdir / ("reference-" + std::to_string(client) + ".txt");
}

/// The answer a cold in-process engine gives for one client's request.
struct Reference {
  std::string csv;
  int rows = 0;
  double pairs = 0.0;  ///< Σ nonzero pairs over the request's cells.
};

/// Runs each client's request through a cold SweepEngine over the
/// cache directory, which fills it, and writes the rows it computed
/// (count, pairs, Table 3 CSV) as the reference a warm result must
/// repeat. Called in a child process; returns its exit status.
int fill_and_write_references(const Options& options) {
  try {
    for (int c = 0; c < kClients; ++c) {
      netloc::engine::SweepOptions sweep;
      sweep.run.seed = client_seed(options, c);
      sweep.jobs = std::min(4, netloc::ThreadPool::default_parallelism());
      sweep.cache_dir = cache_dir(options).string();
      netloc::engine::SweepEngine engine(sweep);
      const auto rows = engine.run_rows(request_entries());
      std::ofstream out(reference_path(options, c), std::ios::binary);
      out << rows.size() << " " << engine.stats().hop_queries << "\n";
      netloc::analysis::write_table3_csv(rows, out);
      out.close();
      if (!out) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: cold fill: " << e.what() << "\n";
    return 1;
  }
}

/// Set-up: fill an empty result cache and write the references. The
/// cold sweeps run in a child process, so the peak resident set this
/// process reports is the warm daemon's, not the cold sweep's.
std::vector<Reference> fill(const Options& options) {
  fs::remove_all(cache_dir(options));
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) _exit(fill_and_write_references(options));
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cold fill of the result cache failed");
  }
  std::vector<Reference> references(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::ifstream in(reference_path(options, c), std::ios::binary);
    Reference& ref = references[static_cast<std::size_t>(c)];
    in >> ref.rows >> ref.pairs;
    in.ignore(1);  // The newline after the header.
    std::ostringstream csv;
    csv << in.rdbuf();
    ref.csv = csv.str();
  }
  return references;
}

/// A daemon serving on its own thread; shut down and joined on exit.
class Harness {
 public:
  explicit Harness(const fs::path& cache_dir)
      : daemon_(options(cache_dir)),
        thread_([this] { daemon_.serve(listener_); }) {}
  ~Harness() {
    daemon_.shutdown();
    thread_.join();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  serve::InProcessListener& listener() { return listener_; }
  serve::Daemon& daemon() { return daemon_; }

 private:
  static serve::DaemonOptions options(const fs::path& cache_dir) {
    serve::DaemonOptions options;
    options.jobs = 1;  // Warm submits run no sweep job.
    options.cache_dir = cache_dir.string();
    return options;
  }

  serve::InProcessListener listener_;
  serve::Daemon daemon_;
  std::thread thread_;
};

serve::SubmitRequest submit_for(const Options& options, int client) {
  serve::SubmitRequest submit;
  submit.apps = netloc::workloads::catalog_apps();
  submit.seed = client_seed(options, client);
  return submit;
}

/// Set-up: fill the cache, then start a daemon over it.
std::unique_ptr<Harness> set_up(const Options& options,
                                std::vector<Reference>& references) {
  references = fill(options);
  return std::make_unique<Harness>(cache_dir(options));
}

/// Invariants of the warm phase, from the daemon's own stats.
void check_warm(Ledger& ledger, const serve::DaemonStats& before,
                const serve::DaemonStats& after) {
  ledger.invariant(after.queue.coalesced == before.queue.coalesced,
                   "disjoint requests never coalesce");
  ledger.invariant(after.lifetime.jobs_run == before.lifetime.jobs_run,
                   "warm submits run no sweep jobs");
}

}  // namespace

Measurement run_serve_warm(const Options& options, Ledger& ledger) {
  Measurement m;
  std::unique_ptr<Harness> harness;
  std::vector<Reference> expected;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    harness.reset();
    const auto begin = Clock::now();
    harness = set_up(options, expected);
    m.setup_s.push_back(seconds_since(begin));
  }
  const auto before = harness->daemon().stats();

  // Rounds of kRoundSubmits submits per client; the clients keep their
  // connections across rounds.
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<serve::Client>(harness->listener().connect()));
  }
  const int rounds = rounds_for(options.seconds, kNominalRoundS);
  std::vector<std::vector<double>> latency(kClients);
  std::vector<std::vector<char>> matched(kClients);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::thread> threads;
    const auto begin = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto& client = *clients[static_cast<std::size_t>(c)];
        const auto submit = submit_for(options, c);
        const Reference& ref = expected[static_cast<std::size_t>(c)];
        for (int i = 0; i < kRoundSubmits; ++i) {
          const auto t0 = Clock::now();
          const auto result = client.submit_and_wait(submit);
          latency[c].push_back(seconds_since(t0));
          matched[c].push_back(serve_result_matches(result, ref.csv, ref.rows));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    Measurement::Round& round = m.rounds.emplace_back();
    round.wall_s = seconds_since(begin);
    for (int c = 0; c < kClients; ++c) {
      round.request_s.insert(round.request_s.end(),
                             latency[c].end() - kRoundSubmits,
                             latency[c].end());
    }
  }

  for (int c = 0; c < kClients; ++c) {
    const Reference& ref = expected[static_cast<std::size_t>(c)];
    const std::string label = "submit of the catalog, seed " +
                              std::to_string(client_seed(options, c));
    for (const char ok : matched[c]) {
      m.cells += 3.0 * ref.rows;
      m.pairs += ref.pairs;
      Verdict verdict;
      verdict.require(ok != 0,
                      "result equals the cold in-process engine's rows");
      ledger.operation(verdict, label);
    }
  }
  check_warm(ledger, before, harness->daemon().stats());
  return m;
}

void replay_serve_warm(const Options& options, Tracer& tracer, Ledger& ledger) {
  Tracer::Scope root(tracer, "bench.serve_warm");
  std::unique_ptr<Harness> harness;
  std::vector<Reference> expected;
  {
    Tracer::Scope span(tracer, "bench.setup");
    harness = set_up(options, expected);
  }
  const auto before = harness->daemon().stats();

  // The two clients' submits, in turn, over raw channels so every frame
  // is timed where it arrives.
  std::vector<std::unique_ptr<serve::ByteChannel>> channels;
  for (int c = 0; c < kClients; ++c) {
    channels.push_back(harness->listener().connect());
  }
  for (std::int64_t k = 0; k < kReplaySubmits; ++k) {
    const int c = static_cast<int>(k % kClients);
    serve::ByteChannel& channel = *channels[static_cast<std::size_t>(c)];
    Tracer::Scope submit_span(tracer, "serve.submit", k);
    const auto sent = Clock::now();
    std::string payload;
    {
      Tracer::Scope span(tracer, "serve.codec", k);
      serve::Request frame;
      frame.kind = serve::Request::Kind::Submit;
      frame.submit = submit_for(options, c);
      payload = serve::encode_request(frame);
    }
    {
      Tracer::Scope span(tracer, "serve.transport", k);
      serve::write_frame(channel, payload);
    }
    double bytes = 4.0 + static_cast<double>(payload.size());
    serve::Json result;
    bool accepted = false;
    while (!accepted || result.is_null()) {
      std::optional<std::string> frame;
      {
        Tracer::Scope span(tracer, "serve.transport", k);
        frame = serve::read_frame(channel);
      }
      if (!frame) break;
      const double arrival_ms = seconds_since(sent) * 1e3;
      bytes += 4.0 + static_cast<double>(frame->size());
      serve::Json json;
      {
        Tracer::Scope span(tracer, "serve.codec", k);
        json = serve::Json::parse(*frame);
      }
      const std::string type = json.get_string("type");
      if (type == "accepted") {
        accepted = true;
        tracer.sample("serve.accept_ms", arrival_ms);
        tracer.count("serve.coalesced", json.get_bool("coalesced") ? 1.0 : 0.0);
      } else if (type == "result" || type == "error") {
        result = std::move(json);
        tracer.sample("serve.result_ms", arrival_ms);
        if (type == "error") break;
      }
    }
    tracer.count("serve.submits", 1.0);
    tracer.count("serve.frame_bytes", bytes);
    Tracer::Scope check(tracer, "bench.check", k);
    const Reference& ref = expected[static_cast<std::size_t>(c)];
    Verdict verdict;
    verdict.require(accepted && serve_result_matches(result, ref.csv, ref.rows),
                    "result equals the cold in-process engine's rows");
    ledger.operation(verdict, "submit of the catalog, seed " +
                                  std::to_string(client_seed(options, c)));
  }
  using Lifetime = netloc::engine::LifetimeStats;
  const auto after = harness->daemon().stats();
  check_warm(ledger, before, after);
  const auto delta = [&](std::int64_t Lifetime::*field) {
    return static_cast<double>(after.lifetime.*field - before.lifetime.*field);
  };
  tracer.count("engine.cache_hits", delta(&Lifetime::cache_hits));
  tracer.count("engine.plans_built", delta(&Lifetime::plans_built));
  tracer.count("engine.jobs_run", delta(&Lifetime::jobs_run));
  tracer.count("engine.hop_queries", delta(&Lifetime::hop_queries));

  // The cache reads inside those submits, replayed through the cache's
  // own API: one blob load per submitted row.
  Tracer::Scope span(tracer, "engine.cache_read");
  netloc::engine::ResultCache cache(cache_dir(options).string());
  const auto entries = request_entries();
  netloc::analysis::RunOptions run;
  bool all_hit = true;
  for (std::int64_t k = 0; k < kReplaySubmits; ++k) {
    run.seed = client_seed(options, static_cast<int>(k % kClients));
    for (const auto& entry : entries) {
      all_hit = cache.load(netloc::engine::result_cache_key(entry, run))
                    .has_value() && all_hit;
    }
  }
  ledger.invariant(all_hit, "every filled row is in the cache");
}

}  // namespace perfbench
