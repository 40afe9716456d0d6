// serve_mix: the daemon an operator runs. The benchmark saves
// scenarios::make_partitioned_assembly(16, 16) as a spec, starts
// `sorel_cli serve <spec> --listen unix:<path>` with no other options, and
// drives it from 2 threads, each with one resil::Client connection, in a
// closed loop (serve's callers block on each reply). The seeded mix is ≈90%
// eval of "app" with one leaf-attribute override (≈2/3 of them repeat a line
// from a 32-shape pool, the rest carry fresh values), ≈8% batch requests of
// 8 such jobs, and ≈2% set_attributes writes flipping leaf attribute X
// between two base values. Every eval and batch line carries X explicitly,
// so each answer depends only on its own line while each write still
// replaces the spec state and empties the hot memo.
//
// Each connection cycles through one seeded pass of kPassLines lines. A
// pass spans dozens of writes, so a fresh-valued line never finds its
// earlier answer cached when it comes round again; and the byte-identity
// check (one fresh in-process Server per distinct line) costs the same
// however long the run is.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

#include "checks.hpp"
#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/resil/client.hpp"
#include "sorel/scenarios/synthetic.hpp"
#include "sorel/serve/protocol.hpp"
#include "sorel/serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wallbench {
namespace {

using sorel::resil::Client;
using sorel::resil::ClientOptions;
using sorel::resil::RequestOutcome;

constexpr std::size_t kGroups = 16;
constexpr std::size_t kLeavesPerGroup = 16;
constexpr const char* kFlipAttribute = "g0_s0.p";
constexpr double kFlipValues[2] = {1e-4, 2e-4};  // 1e-4 is the spec's own value
constexpr std::size_t kPoolShapes = 32;
constexpr std::size_t kPassLines = 1024;
constexpr std::size_t kBatchJobs = 8;
constexpr std::size_t kWritesPerPass = 20;   // ≈2%
constexpr std::size_t kBatchesPerPass = 82;  // ≈8%
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSetupRepeats = 9;

enum class Kind : std::uint8_t { kEval, kBatch, kWrite };

struct Line {
  std::uint32_t id;  // index into Workload::texts
  Kind kind;
  bool repeat;       // same bytes already sent earlier in this pass
};

struct Workload {
  std::vector<std::string> texts;          // distinct request lines
  std::vector<std::vector<Line>> streams;  // one pass per connection
};

// One eval-shaped query: a leaf override plus the explicit X override.
struct Shape {
  std::size_t leaf;  // 1 .. groups·leaves − 1 (leaf 0 is X)
  double value;
  int flip;
};

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string attributes_json(const Shape& shape) {
  const std::string leaf = "g" + std::to_string(shape.leaf / kLeavesPerGroup) + "_s" +
                           std::to_string(shape.leaf % kLeavesPerGroup) + ".p";
  return "{\"" + std::string(kFlipAttribute) + "\":" + number(kFlipValues[shape.flip]) +
         ",\"" + leaf + "\":" + number(shape.value) + "}";
}

Shape fresh_shape(sorel::util::Rng& rng) {
  Shape shape;
  shape.leaf = 1 + rng.below(kGroups * kLeavesPerGroup - 1);
  shape.value = log_uniform(rng, 5e-5, 5e-4);
  shape.flip = static_cast<int>(rng.below(2));
  return shape;
}

Workload make_workload(std::uint64_t seed) {
  sorel::util::Rng rng(seed);
  std::vector<Shape> pool;
  for (std::size_t i = 0; i < kPoolShapes; ++i) pool.push_back(fresh_shape(rng));
  const auto draw = [&pool](sorel::util::Rng& stream) {
    return stream.uniform() < 2.0 / 3.0 ? pool[stream.below(pool.size())] : fresh_shape(stream);
  };

  Workload workload;
  std::unordered_map<std::string, std::uint32_t> ids;
  for (std::size_t c = 0; c < kConnections; ++c) {
    sorel::util::Rng stream = rng.split();
    // Exact kind counts per pass, in seeded order: the share of writes sets
    // how often the hot memo is emptied, so it must not vary with the seed.
    std::vector<Kind> kinds(kPassLines, Kind::kEval);
    std::fill_n(kinds.begin(), kWritesPerPass, Kind::kWrite);
    std::fill_n(kinds.begin() + kWritesPerPass, kBatchesPerPass, Kind::kBatch);
    for (std::size_t i = kinds.size() - 1; i > 0; --i) std::swap(kinds[i], kinds[stream.below(i + 1)]);

    std::unordered_set<std::uint32_t> sent;
    int flip = 0;
    std::vector<Line> lines;
    for (const Kind kind : kinds) {
      std::string text;
      if (kind == Kind::kWrite) {
        flip ^= 1;
        text = "{\"op\":\"set_attributes\",\"attributes\":{\"" + std::string(kFlipAttribute) +
               "\":" + number(kFlipValues[flip]) + "}}";
      } else if (kind == Kind::kBatch) {
        text = "{\"op\":\"batch\",\"jobs\":[";
        for (std::size_t j = 0; j < kBatchJobs; ++j) {
          text += std::string(j == 0 ? "" : ",") + "{\"service\":\"app\",\"attributes\":" +
                  attributes_json(draw(stream)) + "}";
        }
        text += "]}";
      } else {
        text = "{\"op\":\"eval\",\"service\":\"app\",\"attributes\":" +
               attributes_json(draw(stream)) + "}";
      }
      const auto [it, inserted] =
          ids.emplace(text, static_cast<std::uint32_t>(workload.texts.size()));
      if (inserted) workload.texts.push_back(text);
      const bool repeat = !sent.insert(it->second).second;
      lines.push_back(Line{it->second, kind, repeat});
    }
    workload.streams.push_back(std::move(lines));
  }
  return workload;
}

// The reference answer to every distinct line: what a fresh in-process
// Server gives to that line alone. Computed on all hardware threads before
// the daemon starts.
std::vector<std::string> reference_responses(const Workload& workload,
                                             const sorel::json::Value& spec) {
  std::vector<std::string> expected(workload.texts.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t id = next++; id < expected.size(); id = next++) {
      sorel::serve::Server fresh(spec, sorel::serve::Server::Options{});
      expected[id] = fresh.handle_line(workload.texts[id]);
    }
  };
  std::vector<std::thread> threads;
  const unsigned count = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < count; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return expected;
}

// One `sorel_cli serve` process. The destructor kills a daemon that was not
// shut down cleanly and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& spec, const std::string& socket,
         const std::string& log)
      : socket_(socket) {
    const std::string listen = "unix:" + socket;
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (log_fd < 0 || null_fd < 0) {
      if (log_fd >= 0) ::close(log_fd);
      if (null_fd >= 0) ::close(null_fd);
      throw std::runtime_error("cannot open daemon log " + log);
    }
    const char* argv[] = {cli.c_str(), "serve", spec.c_str(), "--listen", listen.c_str(), nullptr};
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(log_fd);
    ::close(null_fd);
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }

  /// Poll until a health request answers ok. Throws when the daemon exits
  /// or does not come up within `timeout_s`.
  void wait_healthy(double timeout_s) {
    ClientOptions options;
    options.timeout_ms = 1000.0;
    options.max_retries = 0;
    Client probe(socket_, options);
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < deadline) {
      const RequestOutcome outcome = probe.call("{\"op\":\"health\"}");
      if (outcome.ok && outcome.response.find("\"status\":\"ok\"") != std::string::npos) return;
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("daemon did not answer health within the timeout");
  }

  /// Send the shutdown op and reap the process (killing it after 10 s).
  void shutdown() {
    ClientOptions options;
    options.timeout_ms = 2000.0;
    options.max_retries = 0;
    Client(socket_, options).call("{\"op\":\"shutdown\"}");
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::fprintf(stderr, "serve_mix: daemon ignored shutdown; killing it\n");
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// Counters the daemon exposes through the stats op, plus what /proc shows.
struct DaemonCounters {
  double requests = 0, engine_evaluations = 0, engine_memo_hits = 0, shared_hits = 0;
  double tasks_run = 0, steals = 0, queue_depth_max = 0, in_flight_max = 0;
  double cpu_us = 0, context_switches = 0;
};

DaemonCounters read_counters(Client& stats_client, pid_t pid) {
  const RequestOutcome outcome = stats_client.call("{\"op\":\"stats\"}");
  if (!outcome.ok) throw std::runtime_error("stats op failed: " + outcome.response);
  const sorel::json::Value stats = sorel::json::parse(outcome.response);
  DaemonCounters c;
  c.requests = stats.at("requests").as_number();
  c.engine_evaluations = stats.at("engine_evaluations").as_number();
  c.engine_memo_hits = stats.at("engine_memo_hits").as_number();
  c.shared_hits = stats.at("shared_hits").as_number();
  c.tasks_run = stats.at("tasks_run").as_number();
  c.steals = stats.at("steals").as_number();
  c.queue_depth_max = stats.at("queue_depth_max").as_number();
  c.in_flight_max = stats.at("requests_in_flight_max").as_number();
  c.cpu_us = process_cpu_us(pid);
  c.context_switches = static_cast<double>(context_switches(pid));
  return c;
}

struct Sample {
  float end_s;  // completion time since the phase started
  float latency_us;
  Kind kind;
  bool post_write;  // first eval this connection sent after its own write
};

struct LivePhase {
  double seconds = 0;
  std::vector<Sample> samples;
  double repeats = 0, repeatable = 0;  // eval/batch lines sent, and repeats among them
  Client::Stats client;                // summed over connections
  DaemonCounters before, after;
  BlockStats blocks;
};

// Span names by request kind: the live client call and the replayed handler.
constexpr const char* kCallSpans[] = {"resil.call.eval", "resil.call.batch", "resil.call.write"};
constexpr const char* kHandleSpans[] = {"serve.handle_eval", "serve.handle_batch",
                                        "serve.handle_write"};

// The closed loop: kConnections threads, each with its own Client, cycling
// through its stream until `seconds` have passed. Every answer is checked
// against the reference bytes.
LivePhase drive(const Workload& workload, const std::vector<std::string>& expected,
                const std::string& socket, double seconds, bool trace, Client& stats_client,
                pid_t pid, Tracer& tracer, Outcome& outcome) {
  struct PerThread {
    std::vector<Sample> samples;
    Outcome checks;
    double repeats = 0, repeatable = 0;
    Client::Stats client;
    Tracer tracer{false};
  };
  std::vector<PerThread> results(kConnections);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> release{false};
  Clock::time_point start;
  Clock::time_point deadline;
  const Clock::time_point epoch = Clock::now();

  const auto run = [&](std::size_t c) {
    PerThread& mine = results[c];
    mine.tracer = Tracer(trace, epoch);
    Client client(socket);
    client.call("{\"op\":\"health\"}");  // connect before the clock starts
    ++ready;
    while (!go.load()) std::this_thread::yield();
    const std::vector<Line>& stream = workload.streams[c];
    bool after_write = false;
    for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
      const Line& line = stream[i % stream.size()];
      const auto t0 = Clock::now();
      RequestOutcome answer;
      {
        Tracer::Scope span(mine.tracer, kCallSpans[static_cast<int>(line.kind)],
                           (std::uint64_t{c} << 32) | i);
        answer = client.call(workload.texts[line.id]);
      }
      const auto t1 = Clock::now();
      const bool post_write = after_write && line.kind == Kind::kEval;
      mine.samples.push_back(Sample{static_cast<float>(seconds_between(start, t1)),
                                    static_cast<float>(micros_between(t0, t1)), line.kind,
                                    post_write});
      if (line.kind == Kind::kWrite) after_write = true;
      if (line.kind == Kind::kEval) after_write = false;
      if (line.kind != Kind::kWrite) {
        mine.repeatable += 1;
        if (line.repeat) mine.repeats += 1;
      }
      ++mine.checks.attempted;
      if (!checks::response_matches(answer, expected[line.id])) {
        mine.checks.fail("request " + workload.texts[line.id].substr(0, 80) + " answered '" +
                         answer.response.substr(0, 120) + "', expected '" +
                         expected[line.id].substr(0, 120) + "'");
      }
    }
    // The health call that opened the connection is not a timed request,
    // and its connect is not a reconnect.
    Client::Stats stats = client.stats();
    stats.requests -= 1;
    stats.reconnects -= 1;
    mine.client = stats;
    // Stay connected until the daemon's counters are read: its connection
    // threads exit on disconnect and take their context switches with them.
    ++finished;
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  };

  LivePhase phase;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(run, c);
  while (ready.load() < kConnections) std::this_thread::yield();
  const auto join_all = [&] {
    release.store(true);
    for (std::thread& thread : threads) thread.join();
  };
  try {
    phase.before = read_counters(stats_client, pid);
  } catch (...) {
    deadline = Clock::now();  // let the clients run no request at all
    go.store(true);
    join_all();
    throw;
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  go.store(true);
  while (finished.load() < kConnections) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  phase.seconds = seconds_between(start, Clock::now());
  try {
    phase.after = read_counters(stats_client, pid);
  } catch (...) {
    join_all();
    throw;
  }
  join_all();

  for (PerThread& mine : results) {
    phase.samples.insert(phase.samples.end(), mine.samples.begin(), mine.samples.end());
    outcome.attempted += mine.checks.attempted;
    outcome.failed += mine.checks.failed;
    for (std::string& error : mine.checks.errors) {
      if (outcome.errors.size() < 8) outcome.errors.push_back(std::move(error));
    }
    phase.repeats += mine.repeats;
    phase.repeatable += mine.repeatable;
    phase.client.requests += mine.client.requests;
    phase.client.retries += mine.client.retries;
    phase.client.reconnects += mine.client.reconnects;
    phase.client.overloaded += mine.client.overloaded;
    phase.client.transport_errors += mine.client.transport_errors;
    tracer.merge(mine.tracer);
  }
  // One-second blocks by completion time; a trailing partial block is
  // dropped unless it is the only one.
  const auto full_blocks = static_cast<std::size_t>(phase.seconds / kBlockSeconds);
  std::vector<std::vector<double>> blocks(std::max<std::size_t>(full_blocks, 1));
  for (const Sample& sample : phase.samples) {
    const auto block = static_cast<std::size_t>(sample.end_s / kBlockSeconds);
    if (block < blocks.size()) blocks[block].push_back(sample.latency_us);
  }
  for (std::vector<double>& block : blocks) {
    phase.blocks.add(static_cast<double>(block.size()),
                     full_blocks > 0 ? kBlockSeconds : phase.seconds, block);
  }
  return phase;
}

std::vector<double> latencies(const LivePhase& phase, bool (*keep)(const Sample&)) {
  std::vector<double> out;
  for (const Sample& sample : phase.samples) {
    if (keep(sample)) out.push_back(sample.latency_us);
  }
  return out;
}

// Replays one pass of both streams (interleaved) through an in-process
// Server with the daemon's options on one thread, with spans around the
// request parse, the handler (named by request kind) and the response dump.
void replay_layers(const Workload& workload, const sorel::json::Value& spec,
                   const std::string& spec_text, double live_eval_p50, Tracer& tracer,
                   Outcome& outcome) {
  sorel::serve::Server server(spec, sorel::serve::Server::Options{});
  const std::size_t first = tracer.size();
  std::vector<double> bytes, refill;
  bool refill_pending = false;
  std::uint64_t op = 0;
  for (std::size_t i = 0; i < kPassLines; ++i) {
    for (std::size_t c = 0; c < kConnections; ++c, ++op) {
      const Line& line = workload.streams[c][i];
      const std::string& text = workload.texts[line.id];
      {
        Tracer::Scope span(tracer, "serve.parse_request", op);
        const sorel::serve::Request request = sorel::serve::parse_request(text);
      }

      const std::uint64_t evaluations_before = server.stats().engine_evaluations;
      std::string response;
      {
        Tracer::Scope span(tracer, kHandleSpans[static_cast<int>(line.kind)], op);
        response = server.handle_line(text);
      }
      if (line.kind == Kind::kEval && refill_pending) {
        refill.push_back(static_cast<double>(server.stats().engine_evaluations - evaluations_before));
        refill_pending = false;
      }
      if (line.kind == Kind::kWrite) refill_pending = true;

      sorel::json::Object object = sorel::json::parse(response).as_object();
      {
        Tracer::Scope span(tracer, "json.dump_response", op);
        const std::string dumped = sorel::serve::dump_response(std::move(object));
      }
      bytes.push_back(static_cast<double>(response.size()));
    }
  }
  const auto span_median = [&](const char* name) { return median(tracer.durations_us(name, first)); };
  const double handle_eval = span_median("serve.handle_eval");
  double total_bytes = 0;
  for (const double b : bytes) total_bytes += b;
  outcome.set("serve.parse_request_us", span_median("serve.parse_request"), "us");
  outcome.set("serve.handle_eval_us", handle_eval, "us");
  outcome.set("serve.handle_batch_us", span_median("serve.handle_batch"), "us");
  outcome.set("serve.handle_write_us", span_median("serve.handle_write"), "us");
  outcome.set("json.response_dump_us", span_median("json.dump_response"), "us");
  outcome.set("json.response_bytes", total_bytes / static_cast<double>(bytes.size()), "bytes");
  outcome.set("serve.front_end_us", live_eval_p50 - handle_eval, "us");
  outcome.set("serve.refill_evaluations", median(refill), "count");
  replay_spec_loads(spec_text, tracer, outcome);
}

void set_daemon_metrics(const LivePhase& phase, Outcome& outcome) {
  const DaemonCounters& a = phase.before;
  const DaemonCounters& b = phase.after;
  const double requests = b.requests - a.requests;
  const double evaluations = b.engine_evaluations - a.engine_evaluations;
  const double hits = b.engine_memo_hits - a.engine_memo_hits;
  outcome.set("memo.hit_ratio", hits + evaluations > 0 ? hits / (hits + evaluations) : 0.0, "ratio");
  outcome.set("memo.shared_hits_per_req", (b.shared_hits - a.shared_hits) / requests, "count");
  outcome.set("serve.repeat_share", phase.repeats / phase.repeatable, "ratio");
  outcome.set("sched.tasks_per_req", (b.tasks_run - a.tasks_run) / requests, "count");
  outcome.set("sched.steals_per_req", (b.steals - a.steals) / requests, "count");
  outcome.set("serve.queue_depth_max", b.queue_depth_max, "count");
  outcome.set("serve.in_flight_max", b.in_flight_max, "count");
  outcome.set("sched.daemon_cpu_us_per_req", (b.cpu_us - a.cpu_us) / requests, "us");
  outcome.set("sched.ctx_switches_per_req", (b.context_switches - a.context_switches) / requests,
              "count");
  outcome.set("resil.retries", static_cast<double>(phase.client.retries), "count");
  outcome.set("resil.reconnects", static_cast<double>(phase.client.reconnects), "count");
  outcome.set("resil.transport_errors", static_cast<double>(phase.client.transport_errors), "count");
}

}  // namespace

Outcome run_serve_mix(const RunConfig& config) {
  Outcome outcome;
  const Workload workload = make_workload(config.seed);
  const sorel::json::Value spec = sorel::dsl::save_assembly(
      sorel::scenarios::make_partitioned_assembly(kGroups, kLeavesPerGroup));
  const std::string spec_text = spec.dump();
  // Per-process names, so runs sharing a checkout never share a file.
  const std::string tag = config.work_dir + "/d" + std::to_string(::getpid());
  const std::string spec_path = tag + "-partitioned_16x16.json";
  std::ofstream(spec_path) << spec_text << '\n';
  const std::vector<std::string> expected = reference_responses(workload, spec);

  // Set-up: spawn to first health ok, several times; the last daemon serves
  // the timed phases.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (daemon) daemon->shutdown();
    const std::string suffix = "-" + std::to_string(repeat);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(config.cli, spec_path, tag + suffix + ".sock",
                                      tag + suffix + ".log");
    daemon->wait_healthy(30.0);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::string socket = tag + "-" + std::to_string(kSetupRepeats - 1) + ".sock";
  Client stats_client(socket);

  Tracer untraced(false);
  const LivePhase plain = drive(workload, expected, socket, config.phase_seconds(), false,
                                stats_client, daemon->pid(), untraced, outcome);
  if (!config.trace) {
    outcome.set("setup_s", median(setup_s), "s");
    outcome.set("peak_rss_mb", peak_rss_mb(daemon->pid()), "MB");
    outcome.set("ops_per_s", plain.blocks.rate(), "1/s");
    outcome.set("latency_p50_us", plain.blocks.p50(), "us");
    outcome.set("latency_p99_us", plain.blocks.p99(), "us");
    std::fprintf(stderr, "serve_mix: %zu latency samples in %zu blocks, %zu distinct lines\n",
                 plain.samples.size(), plain.blocks.rates.size(), workload.texts.size());
    daemon->shutdown();
    return outcome;
  }

  Tracer tracer(true);
  const LivePhase traced = drive(workload, expected, socket, config.phase_seconds(), true,
                                 stats_client, daemon->pid(), tracer, outcome);
  daemon->shutdown();
  const double eval_p50 = median(latencies(traced, [](const Sample& s) { return s.kind == Kind::kEval; }));
  outcome.set("serve.eval_p50_us", eval_p50, "us");
  outcome.set("serve.batch_p50_us",
              median(latencies(traced, [](const Sample& s) { return s.kind == Kind::kBatch; })), "us");
  outcome.set("serve.write_p50_us",
              median(latencies(traced, [](const Sample& s) { return s.kind == Kind::kWrite; })), "us");
  outcome.set("serve.post_write_eval_p50_us",
              median(latencies(traced, [](const Sample& s) { return s.post_write; })), "us");
  outcome.set("latency_samples", static_cast<double>(traced.samples.size()), "count");
  outcome.set("trace.overhead_pct", (plain.blocks.rate() / traced.blocks.rate() - 1.0) * 100.0, "%");
  set_daemon_metrics(traced, outcome);
  replay_layers(workload, spec, spec_text, eval_p50, tracer, outcome);
  tracer.write_jsonl(config.work_dir + "/trace-serve_mix-" + std::to_string(config.seed) + ".jsonl");
  return outcome;
}

}  // namespace wallbench
