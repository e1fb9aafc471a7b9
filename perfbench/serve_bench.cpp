// Serve workload (serve_herald): an open-loop load generator for
// `radsurf serve`.
//
// The generator builds the same engine as the server from the same spec
// file, pre-samples every shot (InjectionEngine::record_timeline_shots) and
// pre-decodes its expected RESULT with the offline stream decoder before
// any timing starts.  It then drives `connections` streams through a list
// of phases:
//   * open-loop phases at a fixed aggregate rate of rounds/s: frame j of a
//     stream is due at t0 + j * interval whether or not the server kept up,
//     and each COMMIT is timed from when the frame completing its window
//     was *due*;
//   * closed-loop saturation phases: each stream keeps `max_inflight`
//     shots in flight and sends as fast as replies allow.
// A phase may name one `herald_stream`: that stream sends a HERALD carrying
// a fresh event realization before its first shot, so the server must build
// a new herald-aware decoder at run time.
//
// Without --trace the generator launches `radsurf serve` as a child process
// (timing launch to HELLO_ACK) and connects to it at `socket`.  With --trace
// it hosts ServeServer in-process on that path,
// replays the serve engine's static pipeline stage by stage, times
// per-frame window ingest offline, climbs a rate ladder and reads the
// server's stats().
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "arch/topologies.hpp"
#include "cli/spec.hpp"
#include "codes/code.hpp"
#include "detector/error_model.hpp"
#include "detector/matching_graph.hpp"
#include "harness.hpp"
#include "noise/depolarizing.hpp"
#include "serve/client.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "stab/frame_sim.hpp"
#include "stab/tableau_sim.hpp"
#include "util/error.hpp"

namespace perfbench {

using radsurf::JsonValue;
using radsurf::RadiationEvent;
namespace rs = radsurf::serve;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kNoHerald = -1;
constexpr int kQuietHerald = -2;

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return set;
}

/// Restrict the calling thread to `cpus` (no-op when empty).
void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  const cpu_set_t set = cpu_set_of(cpus);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// A `radsurf serve` child process, restricted to `cpus`, with its output
/// appended to `log`.  Killed if the harness dies first.  launch() forks,
/// so it runs before this process starts any thread.
class ServerProcess {
 public:
  ServerProcess(std::vector<std::string> argv, std::string socket, std::string log,
                std::vector<int> cpus)
      : argv_(std::move(argv)), socket_(std::move(socket)), log_(std::move(log)),
        cpus_(cpu_set_of(cpus)), pin_(!cpus.empty()) {}
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Start the server; returns the seconds from launch to the first
  /// HELLO_ACK on `socket`.
  double launch() {
    std::vector<char*> argv;
    for (std::string& a : argv_) argv.push_back(a.data());
    argv.push_back(nullptr);
    const Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    RADSURF_ASSERT_MSG(pid_ >= 0, "perfbench: fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (pin_) ::sched_setaffinity(0, sizeof(cpus_), &cpus_);
      // OpenMP then sizes the server's team to its CPU set; the harness's
      // own thread count (every CPU) would oversubscribe the set and starve
      // the reply readers that share it.
      ::unsetenv("OMP_NUM_THREADS");
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    while (seconds_between(t0, Clock::now()) < 60.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) != 0) {
        pid_ = -1;
        RADSURF_ASSERT_MSG(false, "perfbench: radsurf serve exited early (see " << log_ << ")");
      }
      try {
        rs::ServeClient probe = rs::ServeClient::connect_unix(socket_);
        probe.set_read_timeout_ms(5000);
        (void)probe.handshake();
        return seconds_between(t0, Clock::now());
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    RADSURF_ASSERT_MSG(false, "perfbench: radsurf serve did not answer HELLO within 60 s");
    return 0.0;
  }

  /// SIGTERM (a graceful drain), wait, and return the process's peak RSS
  /// in MiB (0 when not running).
  double stop() {
    if (pid_ < 0) return 0.0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  }

 private:
  std::vector<std::string> argv_;
  std::string socket_;
  std::string log_;
  cpu_set_t cpus_;
  bool pin_;
  pid_t pid_ = -1;
};

struct PhaseSpec {
  std::string name;
  double rate_rps = 0.0;  // aggregate offered rounds/s; 0 = closed loop
  std::size_t shots_per_connection = 0;
  std::size_t max_inflight = 4;  // closed loop only
  int herald_stream = -1;        // stream that heralds before its first shot (-1: none)
};

/// One scheduled shot of a stream.
struct ShotPlan {
  std::size_t pool = 0;  // index into the stream's shot pools
  std::size_t index = 0; // shot within that pool
  // HERALD sent right before this shot: a realization index, kQuietHerald
  // (empty event list: back to the base decoder), or kNoHerald.
  int herald = -1;
};

struct Pool {
  std::vector<std::vector<std::uint64_t>> words;  // full-width shot-major
  std::vector<std::uint64_t> expected;
  std::vector<std::vector<std::uint32_t>> defects;
};

/// Per-shot live state shared by a stream's sender and reader threads.
struct ShotLive {
  std::vector<Clock::time_point> due;  // per frame
  std::size_t commits = 0;
  bool resolved = false;
  bool failed = false;
};

struct PhaseOutcome {
  std::vector<double> latencies_ms;  // +inf for windows a failed shot never committed
  std::vector<double> lag_ms;
  std::vector<double> herald_commit_ms;  // latency of window 0 after each HERALD
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t sheds = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;
  std::size_t results = 0;
  double backlog_windows = 0.0;
  double elapsed_s = 0.0;
};

struct Geometry {
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t frames = 0;
  std::size_t windows = 0;
  std::vector<std::vector<std::uint64_t>> frame_masks;  // per frame
  std::vector<std::size_t> window_frame;                // frame completing window w
  std::vector<std::size_t> frame_windows;               // windows completed by frame f
  std::size_t rounds_per_frame = 10;
};

struct Workload {
  std::vector<std::vector<RadiationEvent>> realizations;
  std::vector<std::vector<Pool>> pools;            // per stream
  std::vector<std::vector<std::vector<ShotPlan>>> plans;  // per stream, per phase
};

class Stream {
 public:
  Stream(rs::ServeClient client, std::size_t id, const Geometry& geo,
         const Workload& work, std::vector<int> reader_cpus)
      : client_(std::move(client)), id_(id), geo_(geo), work_(work),
        reader_cpus_(std::move(reader_cpus)) {}

  void start() {
    const rs::HelloAck ack = client_.handshake();
    RADSURF_ASSERT_MSG(ack.num_rounds == geo_.rounds && ack.syndrome_words == geo_.words &&
                           ack.num_windows == geo_.windows,
                       "perfbench: server geometry disagrees with the workload");
    client_.set_read_timeout_ms(30000);
    reader_ = std::thread([this] {
      pin_thread(reader_cpus_);
      read_loop();
    });
  }

  /// Register the shots of `phase`; replies are booked into `out` until
  /// end_phase().
  void begin_phase(int phase, std::uint64_t id_base, PhaseOutcome& out) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ids_.clear();
    for (std::size_t i = 0; i < work_.plans[id_][phase].size(); ++i) {
      ShotLive live;
      live.due.resize(geo_.frames);
      live_[id_base + i] = std::move(live);
      phase_ids_.push_back(id_base + i);
    }
    outcome_ = &out;
    phase_ = phase;
    id_base_ = id_base;
    due_windows_ = 0;
    committed_windows_ = 0;
  }

  std::size_t phase_shots() const { return phase_ids_.size(); }

  /// True when another shot may open under a closed-loop inflight cap.
  bool has_slot(std::size_t max_inflight) {
    std::lock_guard<std::mutex> lock(mu_);
    return !aborted_ && inflight_ < max_inflight;
  }

  /// Send frame f of the phase's shot i (with its HERALD first, if the plan
  /// has one), stamped with the time it was due.
  bool send(std::size_t i, std::size_t f, Clock::time_point due) {
    const ShotPlan& plan = work_.plans[id_][phase_][i];
    const std::uint64_t shot_id = id_base_ + i;
    if (f == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      ++inflight_;
      if (plan.herald >= 0) herald_shots_.insert(shot_id);
    }
    if (f == 0 && plan.herald != kNoHerald) {
      rs::HeraldFrame h;
      if (plan.herald >= 0) h.events = work_.realizations[plan.herald];
      if (!client_.send_herald(h)) return false;
    }
    const std::vector<std::uint64_t>& full = work_.pools[id_][plan.pool].words[plan.index];
    frame_.words.resize(geo_.words);
    frame_.shot_id = shot_id;
    frame_.first_round = static_cast<std::uint32_t>(f * geo_.rounds_per_frame);
    frame_.num_rounds = static_cast<std::uint32_t>(
        std::min(geo_.rounds, (f + 1) * geo_.rounds_per_frame) - f * geo_.rounds_per_frame);
    for (std::size_t w = 0; w < geo_.words; ++w)
      frame_.words[w] = full[w] & geo_.frame_masks[f][w];
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_[shot_id].due[f] = due;
      due_windows_ += geo_.frame_windows[f];
    }
    return client_.send_rounds(frame_);
  }

  /// Windows due but not yet committed (the stream's backlog).
  double backlog() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(due_windows_ - committed_windows_);
  }

  /// Wait until every shot of the phase is resolved and book the outcome.
  void end_phase(bool send_ok, PhaseOutcome& out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!send_ok) aborted_ = true;
    const bool drained = cv_.wait_for(lock, std::chrono::seconds(60), [&] {
      if (aborted_) return true;
      for (const std::uint64_t id : phase_ids_)
        if (!live_[id].resolved) return false;
      return true;
    });
    for (const std::uint64_t id : phase_ids_) {
      ShotLive& live = live_[id];
      ++out.attempted;
      if (!live.resolved || live.failed || !drained) {
        ++out.failed;
        for (std::size_t w = live.commits; w < geo_.windows; ++w)
          out.latencies_ms.push_back(kInf);
      }
    }
    for (const std::uint64_t id : herald_shots_) {
      const auto it = herald_first_commit_.find(id);
      if (it != herald_first_commit_.end()) out.herald_commit_ms.push_back(it->second);
    }
    herald_shots_.clear();
    herald_first_commit_.clear();
    for (const std::uint64_t id : phase_ids_) live_.erase(id);
    outcome_ = nullptr;
  }

  void finish() {
    client_.send_bye();
    if (reader_.joinable()) reader_.join();
    client_.close();
  }

  ~Stream() {
    if (reader_.joinable()) {
      client_.close();
      reader_.join();
    }
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

 private:
  void read_loop() {
    using Kind = rs::ServeClient::ServerReply::Kind;
    while (true) {
      rs::ServeClient::ServerReply reply;
      try {
        reply = client_.read_reply();
      } catch (const std::exception&) {
        reply.kind = Kind::kClosed;
      }
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      if (reply.kind == Kind::kCommit) {
        auto it = live_.find(reply.commit.shot_id);
        if (it == live_.end() || outcome_ == nullptr) continue;
        ShotLive& live = it->second;
        const std::size_t w = reply.commit.window_index;
        const double ms = 1e3 * seconds_between(live.due[geo_.window_frame[w]], now);
        outcome_->latencies_ms.push_back(ms);
        if (w == 0 && herald_shots_.count(reply.commit.shot_id) != 0)
          herald_first_commit_[reply.commit.shot_id] = ms;
        ++live.commits;
        ++committed_windows_;
      } else if (reply.kind == Kind::kResult || reply.kind == Kind::kShed) {
        auto it = live_.find(reply.kind == Kind::kResult ? reply.result.shot_id
                                                         : reply.shed.shot_id);
        if (it == live_.end() || outcome_ == nullptr) continue;
        ShotLive& live = it->second;
        live.resolved = true;
        if (reply.kind == Kind::kShed) {
          live.failed = true;
          ++outcome_->sheds;
        } else {
          ++outcome_->results;
          if (reply.result.prediction != expected_of(reply.result.shot_id)) {
            live.failed = true;
            ++outcome_->mismatches;
          }
        }
        --inflight_;
        cv_.notify_all();
      } else if (reply.kind == Kind::kByeAck) {
        return;
      } else {
        if (reply.kind == Kind::kError && outcome_ != nullptr) ++outcome_->errors;
        aborted_ = true;
        cv_.notify_all();
        return;
      }
    }
  }

  std::uint64_t expected_of(std::uint64_t shot_id) const {
    const ShotPlan& p = work_.plans[id_][phase_][shot_id - id_base_];
    return work_.pools[id_][p.pool].expected[p.index];
  }

  rs::ServeClient client_;
  std::size_t id_;
  const Geometry& geo_;
  const Workload& work_;
  std::vector<int> reader_cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, ShotLive> live_;
  std::vector<std::uint64_t> phase_ids_;
  int phase_ = 0;
  std::uint64_t id_base_ = 0;
  rs::RoundsFrame frame_;
  std::set<std::uint64_t> herald_shots_;
  std::map<std::uint64_t, double> herald_first_commit_;
  PhaseOutcome* outcome_ = nullptr;
  std::size_t inflight_ = 0;
  std::size_t due_windows_ = 0;
  std::size_t committed_windows_ = 0;
  bool aborted_ = false;
  std::thread reader_;  // last: it uses every member above
};

Geometry make_geometry(const radsurf::InjectionEngine& engine,
                       const radsurf::SlidingWindowDecoder& dec,
                       std::size_t rounds_per_frame) {
  Geometry g;
  g.rounds = dec.num_rounds();
  g.rounds_per_frame = rounds_per_frame;
  const std::vector<std::uint32_t>& det_rounds = engine.detector_rounds();
  g.words = (det_rounds.size() + 63) / 64;
  g.frames = (g.rounds + rounds_per_frame - 1) / rounds_per_frame;
  g.windows = dec.num_windows();
  g.frame_masks.assign(g.frames, std::vector<std::uint64_t>(g.words, 0));
  for (std::size_t d = 0; d < det_rounds.size(); ++d)
    g.frame_masks[det_rounds[d] / rounds_per_frame][d / 64] |= std::uint64_t{1} << (d % 64);
  g.frame_windows.assign(g.frames, 0);
  for (std::size_t w = 0; w < g.windows; ++w) {
    const std::size_t end = dec.window_end_round(w);
    const std::size_t f = (end + rounds_per_frame - 1) / rounds_per_frame - 1;
    g.window_frame.push_back(f);
    ++g.frame_windows[f];
  }
  return g;
}

Pool make_pool(const radsurf::InjectionEngine& engine, const radsurf::RadiationTimeline& tl,
               const std::vector<RadiationEvent>& events,
               radsurf::SlidingWindowDecoder& decoder, std::size_t shots,
               std::uint64_t seed, std::size_t words) {
  Pool pool;
  const std::vector<radsurf::RecordedShot> rec =
      engine.record_timeline_shots(tl, events, shots, seed);
  for (const radsurf::RecordedShot& s : rec) {
    std::vector<std::uint64_t> w(words, 0);
    for (const std::uint32_t d : s.defects) w[d / 64] |= std::uint64_t{1} << (d % 64);
    pool.words.push_back(std::move(w));
    pool.expected.push_back(decoder.decode(s.defects));
    pool.defects.push_back(s.defects);
  }
  return pool;
}

std::vector<RadiationEvent> fresh_realization(const radsurf::InjectionEngine& engine,
                                              const radsurf::RadiationTimeline& tl,
                                              std::size_t rounds, std::size_t max_events,
                                              radsurf::Rng& rng) {
  // Exactly max_events strikes, so every herald costs the server a rebuild
  // of the same size class.
  std::vector<RadiationEvent> events;
  while (events.size() < max_events) events = tl.sample(rounds, engine.active_qubits(), rng);
  events.resize(max_events);
  return events;
}

struct Stats {
  double p50 = 0.0, p99 = 0.0;
};

Stats latency_stats(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  s.p50 = quantile_of(xs, 0.50);
  s.p99 = quantile_of(xs, 0.99);
  return s;
}

JsonValue finite_or_null(double v) { return std::isfinite(v) ? JsonValue(v) : JsonValue(); }

JsonValue outcome_json(const PhaseSpec& spec, const PhaseOutcome& o) {
  JsonValue j = JsonValue::object();
  j.set("name", spec.name);
  j.set("rate_rps", spec.rate_rps);
  j.set("commits", o.latencies_ms.size());
  const Stats st = latency_stats(o.latencies_ms);
  j.set("p50_ms", finite_or_null(st.p50));
  j.set("p99_ms", finite_or_null(st.p99));
  j.set("lag_p99_ms", quantile_of(o.lag_ms, 0.99));
  j.set("backlog_windows", o.backlog_windows);
  j.set("attempted", o.attempted);
  j.set("failed", o.failed);
  j.set("sheds", o.sheds);
  j.set("errors", o.errors);
  j.set("mismatches", o.mismatches);
  j.set("results", o.results);
  j.set("elapsed_s", o.elapsed_s);
  JsonValue hs = JsonValue::array();
  for (double h : o.herald_commit_ms) hs.push_back(finite_or_null(h));
  j.set("herald_commit_ms", std::move(hs));
  return j;
}

}  // namespace

int run_loadgen(const JsonValue& input, const std::string& out_path, bool trace) {
  using namespace radsurf;
  const ScenarioSpec spec = ScenarioSpec::from_file(str(input, "spec_path"));
  SpecReader params(spec.params, "$.params");
  rs::ServeConfig cfg = rs::ServeConfig::from_params(params);
  params.finish();
  const std::string socket = str(input, "socket");
  const std::size_t connections = static_cast<std::size_t>(num(input, "connections"));
  const std::size_t rounds_per_frame = static_cast<std::size_t>(num(input, "rounds_per_frame"));
  const std::uint64_t seed = static_cast<std::uint64_t>(num(input, "seed"));
  const std::size_t herald_events = static_cast<std::size_t>(num(input, "herald_events"));
  const std::size_t pool_cap = static_cast<std::size_t>(num(input, "pool_shots"));
  std::vector<int> generator_cpus, reader_cpus;
  for (const JsonValue& c : field(input, "generator_cpus").as_array())
    generator_cpus.push_back(static_cast<int>(c.as_number()));
  for (const JsonValue& c : field(input, "reader_cpus").as_array())
    reader_cpus.push_back(static_cast<int>(c.as_number()));

  std::vector<PhaseSpec> phases;
  const auto add_phase = [&](const JsonValue& p) {
    PhaseSpec ps;
    ps.name = str(p, "name");
    ps.rate_rps = num(p, "rate_rps");
    ps.herald_stream = static_cast<int>(num(p, "herald_stream"));
    ps.max_inflight = static_cast<std::size_t>(num(p, "max_inflight"));
    ps.shots_per_connection = static_cast<std::size_t>(num(p, "shots_per_connection"));
    phases.push_back(ps);
  };
  for (const JsonValue& p : field(input, "phases").as_array()) add_phase(p);
  const std::size_t fixed_phases = phases.size();
  if (trace)
    for (const JsonValue& p : field(input, "ladder").as_array()) add_phase(p);

  Tracer tracer(trace);
  JsonValue out = JsonValue::object();
  out.set("host", host_record());
  std::map<std::string, double> layers;

  // Untraced: launch the external server `launches` times (the last one
  // stays up for the load), before this process builds anything.
  std::unique_ptr<ServerProcess> external;
  if (!trace) {
    const JsonValue& sv = field(input, "server");
    std::vector<std::string> argv;
    for (const JsonValue& a : field(sv, "argv").as_array()) argv.push_back(a.as_string());
    std::vector<int> cpus;
    for (const JsonValue& c : field(sv, "cpus").as_array())
      cpus.push_back(static_cast<int>(c.as_number()));
    external = std::make_unique<ServerProcess>(std::move(argv), socket, str(sv, "log"),
                                               std::move(cpus));
    const int launches = static_cast<int>(num(sv, "launches"));
    JsonValue setups = JsonValue::array();
    for (int i = 0; i < launches; ++i) {
      setups.push_back(external->launch());
      if (i + 1 < launches) external->stop();
    }
    out.set("setup_s", std::move(setups));
  }

  // --- the staged pipeline (traced), then the engine ---------------------------
  Circuit noisy;
  if (trace) {
    const CodeFamily family = cfg.code == "repetition" ? CodeFamily::REPETITION : CodeFamily::XXZZ;
    const int d = static_cast<int>(cfg.distance);
    const std::unique_ptr<SurfaceCode> code =
        make_code(family, d, family == CodeFamily::REPETITION ? 1 : d);
    const Graph arch = make_topology(cfg.arch);
    double staged = 0.0;
    Circuit logical, dec_noisy;
    TranspileResult tr;
    DetectorErrorModel dem;
    MatchingGraph graph;
    Tracer::Span pipeline(tracer, "pipeline", "serve");
    const auto stage = [&](const char* name, auto&& fn) {
      Tracer::Span s(tracer, name, "serve");
      fn();
      s.close();
      staged += s.seconds();
      layers[std::string(name) + "_s"] += s.seconds();
    };
    // The constructor builds the code circuit twice (for the transpile and
    // for its own copy); so does the replay.
    stage("codes.build", [&] {
      logical = code->build(cfg.rounds);
      (void)code->build(cfg.rounds);
    });
    stage("transpile.route", [&] { tr = transpile(logical, arch, TranspileOptions{}); });
    stage("noise.instrument", [&] {
      noisy = DepolarizingModel{cfg.error_rate}.apply(tr.circuit);
      dec_noisy = DepolarizingModel{std::max(cfg.error_rate, 1e-3)}.apply(tr.circuit);
    });
    stage("detector.dem", [&] { dem = DetectorErrorModel::from_circuit(dec_noisy); });
    stage("detector.graph", [&] { graph = MatchingGraph::from_dem(dem); });
    stage("detector.compile", [&] {
      (void)DetectorSet::compile(tr.circuit);
      (void)DetectorSet::detector_rounds(tr.circuit);
    });
    stage("stab.reference", [&] { (void)TableauSimulator(tr.circuit).reference_sample(); });
    pipeline.close();
    layers["transpile.swaps"] = static_cast<double>(tr.swap_count);
    layers["trace.staged_s"] = staged;
    // Frame sampling of intrinsic batches of the serve device.
    FrameSimulator fsim(noisy, 1024);
    Rng rng(seed ^ 0xf4a3e);
    BitVec residual(1024);
    Tracer::Span s(tracer, "stab.frame", "serve");
    for (int b = 0; b < 4; ++b) (void)fsim.run(rng, &residual);
    s.close();
    layers["stab.frame_shots_per_s"] = 4 * 1024 / s.seconds();
  }

  std::unique_ptr<InjectionEngine> engine;
  {
    const Clock::time_point b0 = Clock::now();
    engine = cfg.build_engine();
    layers["inject.engine_build_s"] = seconds_between(b0, Clock::now());
  }
  if (trace) {
    layers["trace.closure_frac"] = layers["trace.staged_s"] / layers["inject.engine_build_s"];
    layers["detector.dem_share_of_setup"] =
        layers["detector.dem_s"] / layers["inject.engine_build_s"];
    layers.erase("trace.staged_s");
  }
  const RadiationTimeline timeline = cfg.build_timeline(*engine);
  {
    const DetectorErrorModel& dem = engine->error_model();
    JsonValue d = JsonValue::object();
    d.set("dem_mechanisms", dem.mechanisms.size());
    d.set("dem_undetectable", dem.num_undetectable);
    d.set("dem_unmatched", dem.num_unmatched);
    d.set("graph_edges", engine->matching_graph().edges().size());
    d.set("swaps", engine->transpiled().swap_count);
    JsonValue devs = JsonValue::object();
    devs.set("serve", std::move(d));
    out.set("devices", std::move(devs));
  }
  // --- offline workload: realizations, shot pools, expectations ----------------
  std::unique_ptr<SlidingWindowDecoder> base;
  {
    Tracer::Span s(tracer, "decoder.mwpm_build", "serve");
    base = engine->make_stream_decoder(nullptr, {}, cfg.window);
    s.close();
    layers["decoder.mwpm_build_s"] = s.seconds();
  }
  const Geometry geo = make_geometry(*engine, *base, rounds_per_frame);
  Workload work;
  work.pools.resize(connections);
  work.plans.assign(connections, std::vector<std::vector<ShotPlan>>(phases.size()));
  double record_s = 0.0;
  std::size_t recorded = 0;
  Rng realization_rng(seed ^ 0x4e7a1d);
  // Plan every stream's shots; a herald opens a pool of shots sampled
  // under a fresh realization, used for the rest of the phase.
  struct PendingPool {
    std::size_t stream, slot, shots;
    int realization;
  };
  std::vector<PendingPool> pending;
  for (std::size_t c = 0; c < connections; ++c) {
    const Clock::time_point r0 = Clock::now();
    work.pools[c].push_back(make_pool(*engine, timeline, {}, *base,
                                      pool_cap, seed + 1000003 * (c + 1), geo.words));
    record_s += seconds_between(r0, Clock::now());
    recorded += pool_cap;
    bool aware_current = false;  // the server decodes this stream's new shots aware
    std::size_t quiet_next = 0;  // quiet shots run through pool 0 across phases
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const PhaseSpec& ps = phases[p];
      const std::size_t n = ps.shots_per_connection;
      std::size_t pool = 0, next = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ShotPlan sp;
        if (i == 0 && ps.herald_stream == static_cast<int>(c)) {
          const int r = static_cast<int>(work.realizations.size());
          work.realizations.push_back(
              fresh_realization(*engine, timeline, cfg.rounds, herald_events, realization_rng));
          pool = work.pools[c].size();
          work.pools[c].emplace_back();
          pending.push_back({c, pool, std::min(n, pool_cap), r});
          next = 0;
          sp.herald = r;
          aware_current = true;
        } else if (i == 0 && aware_current) {
          // A phase that reopens on quiet shots first tells the server the
          // strike is over.
          sp.herald = kQuietHerald;
          aware_current = false;
        }
        sp.pool = pool;
        sp.index = pool == 0 ? quiet_next++ : next++;
        work.plans[c][p].push_back(sp);
      }
    }
  }
  // Herald-aware decoders for the expectations, built in parallel (each is a
  // full DEM build of the strike-instrumented circuit).
  std::vector<std::unique_ptr<SlidingWindowDecoder>> aware(work.realizations.size());
  std::vector<double> aware_build_s(work.realizations.size()), instrument_s;
  {
    std::atomic<std::size_t> next_build{0};
    std::vector<std::thread> build_threads;
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned t = 0; t < workers; ++t)
      build_threads.emplace_back([&] {
        for (std::size_t r; (r = next_build.fetch_add(1)) < aware.size();) {
          const Clock::time_point a0 = Clock::now();
          aware[r] = engine->make_stream_decoder(&timeline, work.realizations[r], cfg.window);
          aware_build_s[r] = seconds_between(a0, Clock::now());
        }
      });
    for (std::thread& t : build_threads) t.join();
  }
  for (const PendingPool& pp : pending) {
    const std::vector<RadiationEvent>& events = work.realizations[pp.realization];
    const Clock::time_point i0 = Clock::now();
    (void)instrument_timeline_noise(engine->transpiled().circuit,
                                    timeline.schedule(engine->architecture(), events, cfg.rounds));
    instrument_s.push_back(seconds_between(i0, Clock::now()));
    const Clock::time_point s0 = Clock::now();
    work.pools[pp.stream][pp.slot] =
        make_pool(*engine, timeline, events, *aware[pp.realization], pp.shots,
                  seed ^ (0x9e3779b97f4a7c15ULL * (pp.realization + 1)), geo.words);
    record_s += seconds_between(s0, Clock::now());
    recorded += pp.shots;
  }
  for (std::size_t c = 0; c < connections; ++c)
    for (auto& phase_plan : work.plans[c])
      for (ShotPlan& sp : phase_plan) sp.index %= work.pools[c][sp.pool].words.size();
  // The quiet stream decoder counts as the stream decoder build when no
  // herald asks for an aware one.
  layers["inject.stream_decoder_build_s"] =
      aware_build_s.empty() ? layers["decoder.mwpm_build_s"] : median_of(aware_build_s);
  if (instrument_s.empty()) {
    const Clock::time_point i0 = Clock::now();
    (void)instrument_timeline_noise(engine->transpiled().circuit,
                                    timeline.schedule(engine->architecture(), {}, cfg.rounds));
    instrument_s.push_back(seconds_between(i0, Clock::now()));
  }
  layers["noise.event_instrument_s"] = median_of(instrument_s);
  layers["stab.replay_shots_per_s"] = static_cast<double>(recorded) / record_s;
  layers["inject.campaign_s"] = record_s;

  // Per-frame window ingest, timed offline on the quiet pools.
  std::vector<double> ingest_us;
  if (trace) {
    double ingest_total = 0.0;
    std::size_t ingested = 0;
    for (std::size_t c = 0; c < connections; ++c) {
      const Pool& pool = work.pools[c][0];
      for (const auto& defects : pool.defects) {
        SlidingWindowDecoder::StreamCursor cursor;
        std::size_t next = 0;
        for (std::size_t f = 0; f < geo.frames; ++f) {
          const std::size_t complete = std::min(geo.rounds, (f + 1) * rounds_per_frame);
          std::vector<std::uint32_t> part;
          while (next < defects.size() &&
                 engine->detector_rounds()[defects[next]] < complete)
            part.push_back(defects[next++]);
          const Clock::time_point i0 = Clock::now();
          base->ingest(cursor, part.data(), part.size(), complete);
          const double s = seconds_between(i0, Clock::now());
          ingest_us.push_back(1e6 * s);
          ingest_total += s;
        }
        (void)base->finish(cursor);
        ++ingested;
      }
    }
    layers["decoder.decodes_per_s"] = static_cast<double>(ingested) / ingest_total;
  }

  // --- serve --------------------------------------------------------------------
  std::unique_ptr<rs::ServeServer> server;
  if (trace) {
    rs::ServeOptions opts = cfg.server_options();
    opts.listen_tcp = false;
    opts.unix_path = socket;
    server = std::make_unique<rs::ServeServer>(*engine, &timeline, opts);
    server->start();
  }
  std::vector<std::unique_ptr<Stream>> streams;
  for (std::size_t c = 0; c < connections; ++c) {
    streams.push_back(std::make_unique<Stream>(rs::ServeClient::connect_unix(socket), c, geo,
                                               work, reader_cpus));
    streams.back()->start();
  }
  // Only now, with every server thread already started, does the generator
  // take its own core.
  pin_thread(generator_cpus);

  // One generator thread drives every stream's sends, so its own wake-ups
  // cannot make it late: it spins (yielding) until each frame is due.
  // Stream c's frames are offset by c/connections of the frame interval.
  const auto run_phase = [&](std::size_t p, std::uint64_t id_base) {
    const PhaseSpec& ps = phases[p];
    PhaseOutcome total;
    std::vector<PhaseOutcome> per(connections);
    const bool open = ps.rate_rps > 0.0;
    const Clock::duration interval =
        open ? std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                   static_cast<double>(connections * rounds_per_frame) / ps.rate_rps))
             : Clock::duration::zero();
    Tracer::Span span(tracer, "loadgen.phase", ps.name);
    for (std::size_t c = 0; c < connections; ++c)
      streams[c]->begin_phase(static_cast<int>(p), id_base, per[c]);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    std::vector<std::size_t> next(connections, 0);  // frame counter per stream
    const std::size_t frames_per_stream = streams[0]->phase_shots() * geo.frames;
    bool ok = true;
    Clock::time_point prev_end = t0;
    if (open) {
      while (ok) {
        std::size_t c = connections;
        Clock::time_point due = Clock::time_point::max();
        for (std::size_t k = 0; k < connections; ++k) {
          if (next[k] >= frames_per_stream) continue;
          const Clock::time_point d = t0 + interval * next[k] + interval * k / connections;
          if (d < due) due = d, c = k;
        }
        if (c == connections) break;
        while (Clock::now() < due) std::this_thread::yield();
        const Clock::time_point start = Clock::now();
        per[c].lag_ms.push_back(1e3 * seconds_between(std::max(due, prev_end), start));
        ok = streams[c]->send(next[c] / geo.frames, next[c] % geo.frames, due);
        prev_end = Clock::now();
        ++next[c];
      }
      for (std::size_t c = 0; c < connections; ++c) per[c].backlog_windows = streams[c]->backlog();
    } else {
      // Closed loop: whole shots, back to back, up to max_inflight per stream.
      while (ok) {
        bool any_left = false, sent = false;
        for (std::size_t c = 0; c < connections && ok; ++c) {
          if (next[c] >= frames_per_stream) continue;
          any_left = true;
          if (!streams[c]->has_slot(ps.max_inflight)) continue;
          for (std::size_t f = 0; f < geo.frames && ok; ++f)
            ok = streams[c]->send(next[c] / geo.frames, f, Clock::now());
          next[c] += geo.frames;
          sent = true;
        }
        if (!any_left) break;
        if (!sent) std::this_thread::yield();
      }
    }
    for (std::size_t c = 0; c < connections; ++c) streams[c]->end_phase(ok, per[c]);
    total.elapsed_s = seconds_between(t0, Clock::now());
    for (PhaseOutcome& o : per) {
      total.latencies_ms.insert(total.latencies_ms.end(), o.latencies_ms.begin(), o.latencies_ms.end());
      total.lag_ms.insert(total.lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
      total.herald_commit_ms.insert(total.herald_commit_ms.end(), o.herald_commit_ms.begin(),
                                    o.herald_commit_ms.end());
      total.attempted += o.attempted;
      total.failed += o.failed;
      total.sheds += o.sheds;
      total.errors += o.errors;
      total.mismatches += o.mismatches;
      total.results += o.results;
      total.backlog_windows += o.backlog_windows;
    }
    return total;
  };

  JsonValue jphases = JsonValue::array();
  std::vector<PhaseOutcome> outcomes;
  std::uint64_t id_base = 0;
  double max_rate = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseOutcome o = run_phase(p, id_base);
    id_base += phases[p].shots_per_connection + 1;
    jphases.push_back(outcome_json(phases[p], o));
    if (p >= fixed_phases) {
      // Ladder step: passes when p99 stays within the limit with nothing
      // shed or failed and no backlog left behind at the end of the step.
      const Stats st = latency_stats(o.latencies_ms);
      const double backlog_limit = 2.0 * static_cast<double>(connections * geo.windows) /
                                   static_cast<double>(geo.frames);
      const bool pass = o.failed == 0 && st.p99 <= num(input, "p99_limit_ms") &&
                        o.backlog_windows <= backlog_limit;
      if (!pass) break;
      max_rate = phases[p].rate_rps;
    }
    outcomes.push_back(std::move(o));
  }
  out.set("phases", std::move(jphases));
  for (auto& s : streams) s->finish();
  streams.clear();
  if (external) out.set("server_peak_rss_mb", external->stop());
  // Generator lateness, pooled over every frame of the fixed-rate phases.
  std::vector<double> lag;
  for (std::size_t p = 0; p < fixed_phases && p < outcomes.size(); ++p)
    lag.insert(lag.end(), outcomes[p].lag_ms.begin(), outcomes[p].lag_ms.end());
  out.set("lag_p99_ms", quantile_of(lag, 0.99));

  if (trace) {
    const rs::ServeStatsSnapshot st = server->stats();
    std::uint64_t lookups = st.memo_lookups, hits = st.memo_hits;
    for (const auto& events : work.realizations) {
      const auto dec = server->shared().decoder_for(events);
      if (dec.get() == &server->shared().base_decoder()) continue;
      lookups += dec->memo_lookups();
      hits += dec->memo_hits();
    }
    layers["decoder.window_memo_lookups"] = static_cast<double>(lookups);
    layers["decoder.window_memo_hit_rate"] =
        lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
    layers["decoder.window_ingest_us.p50"] = quantile_of(ingest_us, 0.50);
    layers["decoder.window_ingest_us.p99"] = quantile_of(ingest_us, 0.99);
    layers["serve.queue_high_water"] = static_cast<double>(st.queue_high_water);
    layers["serve.shed_shots"] = static_cast<double>(st.shed_shots);
    layers["serve.protocol_errors"] = static_cast<double>(st.protocol_errors);
    layers["serve.replies_dropped"] = static_cast<double>(st.replies_dropped);
    layers["serve.aware_rebuilds"] = static_cast<double>(st.aware_rebuilds);
    layers["loadgen.max_rate_rps"] = max_rate;
    const double ingest_p50_ms = 1e-3 * layers["decoder.window_ingest_us.p50"];
    const double ingest_p99_ms = 1e-3 * layers["decoder.window_ingest_us.p99"];
    std::vector<double> lat, stalls;
    double backlog = 0.0;
    for (std::size_t p = 0; p < fixed_phases && p < outcomes.size(); ++p) {
      lat.insert(lat.end(), outcomes[p].latencies_ms.begin(), outcomes[p].latencies_ms.end());
      stalls.insert(stalls.end(), outcomes[p].herald_commit_ms.begin(),
                    outcomes[p].herald_commit_ms.end());
      backlog = std::max(backlog, outcomes[p].backlog_windows);
    }
    const Stats ls = latency_stats(lat);
    layers["serve.overhead_ms.p50"] = ls.p50 - ingest_p50_ms;
    layers["serve.overhead_ms.p99"] = ls.p99 - ingest_p99_ms;
    layers["serve.herald_stall_ms"] = stalls.empty() ? 0.0 : median_of(stalls);
    layers["loadgen.lag_p99_ms"] = quantile_of(lag, 0.99);
    layers["loadgen.backlog_windows"] = backlog;
    server->shutdown();
    JsonValue l = JsonValue::object();
    for (const auto& [k, v] : layers) l.set(k, finite_or_null(v));
    out.set("layers", std::move(l));
    out.set("spans", tracer.to_json());
  }
  out.set("peak_rss_mb", peak_rss_mb());
  write_json(out_path, out);
  return 0;
}

}  // namespace perfbench
