// Campaign workload (paper_campaign).
//
// One *pass* builds every device's InjectionEngine through its public
// constructor and runs the device's campaign cells through the same run_*
// calls the grid scenario makes: intrinsic noise, and a single erasure and
// a full-intensity spreading strike at every active root.  Every pass repeats
// identical work (same cells, same per-cell seeds), so run.py can take
// medians over passes; passes repeat until the time budget is spent.
//
// With --trace, one more pass runs the same work inside spans, and then
// every device's static pipeline is replayed stage by stage through the
// public calls the constructor makes, followed by shot-loop probes (frame
// sampling, exact replay, decode) on recorded batches.
#include <algorithm>
#include <cmath>
#include <memory>

#include "arch/topologies.hpp"
#include "cli/grid.hpp"
#include "codes/code.hpp"
#include "decoder/mwpm.hpp"
#include "detector/error_model.hpp"
#include "detector/matching_graph.hpp"
#include "harness.hpp"
#include "inject/campaign.hpp"
#include "noise/depolarizing.hpp"
#include "noise/radiation.hpp"
#include "stab/compact_tableau.hpp"
#include "stab/frame_sim.hpp"
#include "stab/tableau_sim.hpp"
#include "util/error.hpp"

namespace perfbench {

using radsurf::JsonValue;

namespace {

struct Cell {
  std::string key;
  std::string kind;  // intrinsic | erasure | strike
  std::string load;  // low | mid | high: the cell's radiation intensity
  std::uint32_t root = 0;
  std::uint64_t seed = 0;
};

struct Device {
  std::string name;
  radsurf::CodeFamily family = radsurf::CodeFamily::REPETITION;
  int dz = 3, dx = 1;
  std::string arch;  // make_topology name
  radsurf::EngineOptions options;
  std::size_t shots = 0;
};

radsurf::CodeFamily parse_family(const std::string& s) {
  if (s == "repetition") return radsurf::CodeFamily::REPETITION;
  if (s == "xxzz") return radsurf::CodeFamily::XXZZ;
  RADSURF_ASSERT_MSG(false, "perfbench: unknown code family " << s);
  return radsurf::CodeFamily::REPETITION;
}

std::vector<Device> parse_devices(const JsonValue& input) {
  std::vector<Device> out;
  for (const JsonValue& d : field(input, "devices").as_array()) {
    Device dev;
    dev.name = str(d, "name");
    dev.family = parse_family(str(d, "code"));
    dev.dz = static_cast<int>(num(d, "dz"));
    dev.dx = static_cast<int>(num(d, "dx"));
    dev.arch = str(d, "arch");
    dev.options.rounds = static_cast<std::size_t>(num(d, "rounds"));
    dev.options.physical_error_rate = num(d, "p");
    dev.shots = static_cast<std::size_t>(num(d, "shots"));
    out.push_back(std::move(dev));
  }
  return out;
}

std::vector<Cell> device_cells(const Device& dev,
                               const radsurf::InjectionEngine& engine,
                               std::uint64_t base_seed) {
  std::vector<Cell> cells;
  const auto add = [&](const std::string& kind, const std::string& load,
                       std::uint32_t root, bool rooted) {
    Cell c;
    c.kind = kind;
    c.load = load;
    c.root = root;
    c.key = dev.name + "/" + kind;
    if (rooted) {
      c.key += '/';
      c.key += std::to_string(root);
    }
    c.seed = radsurf::grid_cell_seed(base_seed, c.key);
    cells.push_back(std::move(c));
  };
  add("intrinsic", "low", 0, false);
  for (const std::uint32_t r : engine.active_qubits()) add("erasure", "mid", r, true);
  for (const std::uint32_t r : engine.active_qubits()) add("strike", "high", r, true);
  return cells;
}

radsurf::Proportion run_cell(const radsurf::InjectionEngine& engine,
                             const Cell& cell, std::size_t shots) {
  if (cell.kind == "intrinsic") return engine.run_intrinsic(shots, cell.seed);
  if (cell.kind == "erasure") return engine.run_erasure({cell.root}, shots, cell.seed);
  RADSURF_ASSERT_MSG(cell.kind == "strike", "perfbench: unknown cell kind " << cell.kind);
  return engine.run_radiation_at(cell.root, 1.0, /*spread=*/true, shots, cell.seed);
}

struct CellResult {
  std::string load;
  std::size_t errors = 0;
  std::size_t shots = 0;
  std::vector<double> ms;  // one per pass
  bool deterministic = true;
};

struct EngineCounters {
  std::uint64_t shots = 0;
  std::uint64_t exact_replays = 0;
  std::uint64_t promo_groups = 0;
  std::uint64_t promoted_shots = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_bypassed = 0;
  std::uint64_t chunks = 0;
  std::uint64_t campaigns = 0;
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double campaign_s = 0.0;
  double campaign_cpu_s = 0.0;
  std::uint64_t shots = 0;
  std::vector<double> engine_build_s;
  EngineCounters counters;
};

/// One full pass over every device.  `tracer` receives one span per engine
/// construction and per campaign cell (nothing when disabled).
PassResult run_pass(const std::vector<Device>& devices, std::uint64_t seed,
                    std::map<std::string, CellResult>& cells_out,
                    JsonValue* dem_out, Tracer& tracer) {
  PassResult pass;
  const Clock::time_point t0 = Clock::now();
  for (const Device& dev : devices) {
    const std::unique_ptr<radsurf::SurfaceCode> code =
        radsurf::make_code(dev.family, dev.dz, dev.dx);
    radsurf::Graph arch = radsurf::make_topology(dev.arch);
    std::unique_ptr<radsurf::InjectionEngine> engine;
    {
      Tracer::Span span(tracer, "inject.engine_build", dev.name);
      const Clock::time_point b0 = Clock::now();
      engine = std::make_unique<radsurf::InjectionEngine>(*code, std::move(arch),
                                                          dev.options);
      const double built = seconds_between(b0, Clock::now());
      pass.setup_s += built;
      pass.engine_build_s.push_back(built);
    }
    if (dem_out) {
      const radsurf::DetectorErrorModel& dem = engine->error_model();
      JsonValue d = JsonValue::object();
      d.set("dem_mechanisms", dem.mechanisms.size());
      d.set("dem_undetectable", dem.num_undetectable);
      d.set("dem_unmatched", dem.num_unmatched);
      d.set("graph_edges", engine->matching_graph().edges().size());
      d.set("swaps", engine->transpiled().swap_count);
      d.set("replay_engine", engine->replay_engine());
      dem_out->set(dev.name, std::move(d));
    }
    const double cpu0 = cpu_seconds();
    const Clock::time_point c0 = Clock::now();
    for (const Cell& cell : device_cells(dev, *engine, seed)) {
      Tracer::Span span(tracer, "inject.campaign", cell.key);
      const Clock::time_point s0 = Clock::now();
      const radsurf::Proportion p = run_cell(*engine, cell, dev.shots);
      const double ms = 1e3 * seconds_between(s0, Clock::now());
      auto [it, fresh] = cells_out.try_emplace(cell.key);
      CellResult& r = it->second;
      if (fresh) {
        r.load = cell.load;
        r.errors = p.successes;
        r.shots = p.trials;
      } else if (r.errors != p.successes || r.shots != p.trials) {
        r.deterministic = false;
      }
      r.ms.push_back(ms);
      pass.shots += p.trials;
      pass.counters.chunks +=
          (p.trials + dev.options.shots_per_chunk - 1) / dev.options.shots_per_chunk;
      ++pass.counters.campaigns;
    }
    pass.campaign_s += seconds_between(c0, Clock::now());
    pass.campaign_cpu_s += cpu_seconds() - cpu0;
    const radsurf::PromotionStats promo = engine->promotion_stats();
    const radsurf::DecodeCacheStats cache = engine->decode_cache_stats();
    EngineCounters& c = pass.counters;
    c.exact_replays += promo.exact_replays;
    c.promo_groups += promo.groups;
    c.promoted_shots += promo.promoted_shots;
    c.cache_lookups += cache.lookups;
    c.cache_hits += cache.hits;
    c.cache_bypassed += engine->cache_bypassed() ? 1 : 0;
  }
  pass.counters.shots = pass.shots;
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

/// Stage-by-stage replay of one device's static pipeline (the constructor's
/// public calls, in its order) followed by shot-loop probes on recorded
/// batches.  Adds its layer numbers into `layers`.
void trace_device(const Device& dev, Tracer& tracer, std::map<std::string, double>& layers,
                  std::vector<double>& ingest_us) {
  using namespace radsurf;
  const std::unique_ptr<SurfaceCode> code = make_code(dev.family, dev.dz, dev.dx);
  const Graph arch = radsurf::make_topology(dev.arch);
  const EngineOptions& o = dev.options;

  double staged = 0.0;
  Circuit logical, noisy, dec_noisy;
  TranspileResult tr;
  DetectorErrorModel dem;
  MatchingGraph graph;
  std::unique_ptr<Decoder> decoder;
  DetectorSet detectors;
  BitVec reference;
  {
    Tracer::Span pipeline(tracer, "pipeline", dev.name);
    const auto stage = [&](const char* name, auto&& fn) {
      Tracer::Span s(tracer, name, dev.name);
      fn();
      s.close();
      staged += s.seconds();
    };
    // The constructor builds the code circuit twice (for the transpile and
    // for its own copy); so does the replay.
    stage("codes.build", [&] {
      logical = code->build(o.rounds);
      (void)code->build(o.rounds);
    });
    stage("transpile.route", [&] { tr = transpile(logical, arch, TranspileOptions{o.layout}); });
    stage("noise.instrument", [&] {
      noisy = DepolarizingModel{o.physical_error_rate, o.uniform_two_qubit,
                                o.measurement_error_rate}
                  .apply(tr.circuit);
      dec_noisy = DepolarizingModel{std::max(o.physical_error_rate, 1e-3),
                                    o.uniform_two_qubit, o.measurement_error_rate}
                      .apply(tr.circuit);
    });
    stage("detector.dem", [&] { dem = DetectorErrorModel::from_circuit(dec_noisy); });
    stage("detector.graph", [&] { graph = MatchingGraph::from_dem(dem); });
    stage("decoder.mwpm_build", [&] { decoder = make_decoder(o.decoder, graph); });
    stage("detector.compile", [&] {
      detectors = DetectorSet::compile(tr.circuit);
      (void)DetectorSet::detector_rounds(tr.circuit);
    });
    stage("stab.reference", [&] { reference = TableauSimulator(tr.circuit).reference_sample(); });
  }
  // The untraced constructor on the same device: the closure denominator.
  double ctor_s = 0.0;
  std::unique_ptr<InjectionEngine> engine;
  {
    Graph arch2 = radsurf::make_topology(dev.arch);
    const Clock::time_point b0 = Clock::now();
    engine = std::make_unique<InjectionEngine>(*code, std::move(arch2), o);
    ctor_s = seconds_between(b0, Clock::now());
  }
  layers["trace.staged_s"] += staged;
  layers["trace.ctor_s"] += ctor_s;
  layers["transpile.swaps"] += static_cast<double>(tr.swap_count);

  // Shot-loop probes.  Frame sampling of intrinsic batches.
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(dev.dz * 131 + dev.dx));
  constexpr std::size_t kBatch = 1024;
  std::vector<std::vector<std::uint32_t>> recorded;
  std::size_t frame_shots = 0;
  double frame_s = 0.0;
  {
    FrameSimulator fsim(noisy, kBatch);
    BitVec residual(kBatch);
    std::vector<BitVec> det_rows;
    for (int b = 0; b < 4; ++b) {
      Tracer::Span s(tracer, "stab.frame", dev.name);
      const MeasurementFlips& flips = fsim.run(rng, &residual);
      detectors.detector_flips_into(flips, det_rows);
      s.close();
      frame_s += s.seconds();
      frame_shots += kBatch;
      for (std::size_t shot = 0; shot < kBatch; ++shot) {
        std::vector<std::uint32_t> defects;
        for (std::size_t d = 0; d < det_rows.size(); ++d)
          if (det_rows[d].get(shot)) defects.push_back(static_cast<std::uint32_t>(d));
        recorded.push_back(std::move(defects));
      }
    }
  }
  layers["stab.frame_shots"] += static_cast<double>(frame_shots);
  layers["stab.frame_s"] += frame_s;

  // Exact replay of a full-intensity spreading strike at the first root.
  {
    const std::vector<std::uint32_t> roots = tr.touched_physical_qubits();
    const RadiationModel model{};
    const std::vector<double> probs = model.qubit_probabilities(arch, roots.front(), 1.0, true);
    Circuit struck;
    {
      Tracer::Span s(tracer, "noise.event_instrument", dev.name);
      struck = instrument_reset_noise(noisy, probs);
      s.close();
      layers["noise.event_instrument_s"] += s.seconds();
    }
    CompactTableauSimulator sim(CircuitTape::compile(struck));
    BitVec record(detectors.num_records());
    std::vector<std::uint32_t> defects;
    constexpr std::size_t replay_shots = 512;
    Tracer::Span s(tracer, "stab.replay", dev.name);
    for (std::size_t i = 0; i < replay_shots; ++i) {
      sim.sample_into(rng, record);
      detectors.defects_and_observables_into(record, reference, defects, nullptr);
      recorded.push_back(defects);
    }
    s.close();
    layers["stab.replay_shots"] += static_cast<double>(replay_shots);
    layers["stab.replay_s"] += s.seconds();
  }

  // Decode every recorded shot through a fresh caching decoder, as the
  // engine does.
  {
    CachingDecoder cached(*decoder);
    cached.enable_auto_bypass();
    Tracer::Span s(tracer, "decoder.decode", dev.name);
    for (const auto& defects : recorded) (void)cached.decode(defects);
    s.close();
    layers["decoder.decodes"] += static_cast<double>(recorded.size());
    layers["decoder.decode_s"] += s.seconds();
    if (const auto* mwpm = dynamic_cast<const MwpmDecoder*>(decoder.get()))
      layers["decoder.warm_reuses"] += static_cast<double>(mwpm->matcher_stats().warm_reuses);
  }

  // The device's streaming decoder, fed the recorded intrinsic shots round
  // by round (the serve path on this device).
  std::unique_ptr<SlidingWindowDecoder> stream;
  {
    Tracer::Span s(tracer, "inject.stream_decoder_build", dev.name);
    stream = engine->make_stream_decoder(nullptr, {});
    s.close();
    layers["inject.stream_decoder_build_s"] += s.seconds();
  }
  const std::vector<std::uint32_t>& det_rounds = engine->detector_rounds();
  Tracer::Span s(tracer, "decoder.window_ingest", dev.name);
  for (std::size_t shot = 0; shot < frame_shots; ++shot) {
    const std::vector<std::uint32_t>& defects = recorded[shot];
    SlidingWindowDecoder::StreamCursor cursor;
    std::size_t next = 0;
    for (std::size_t r = 1; r <= stream->num_rounds(); ++r) {
      const std::size_t first = next;
      while (next < defects.size() && det_rounds[defects[next]] < r) ++next;
      const Clock::time_point i0 = Clock::now();
      stream->ingest(cursor, defects.data() + first, next - first, r);
      ingest_us.push_back(1e6 * seconds_between(i0, Clock::now()));
    }
    (void)stream->finish(cursor);
  }
}

}  // namespace

int run_campaign(const JsonValue& input, const std::string& out_path, bool trace) {
  const std::vector<Device> devices = parse_devices(input);
  const std::uint64_t seed = static_cast<std::uint64_t>(num(input, "seed"));
  const double budget_s = num(input, "seconds");
  const int min_passes = static_cast<int>(num(input, "min_passes"));
  const int max_passes = static_cast<int>(num(input, "max_passes"));

  std::map<std::string, CellResult> cells;
  JsonValue dem = JsonValue::object();
  std::vector<PassResult> passes;
  Tracer untraced(false);
  // A traced run spends its budget on the traced/untraced pairs below.
  const Clock::time_point t0 = Clock::now();
  while (passes.empty() ||
         (!trace && (static_cast<int>(passes.size()) < min_passes ||
                     (seconds_between(t0, Clock::now()) < budget_s &&
                      static_cast<int>(passes.size()) < max_passes)))) {
    passes.push_back(run_pass(devices, seed, cells, passes.empty() ? &dem : nullptr, untraced));
  }

  JsonValue out = JsonValue::object();
  out.set("host", host_record());
  JsonValue jp = JsonValue::array();
  for (const PassResult& p : passes) {
    JsonValue o = JsonValue::object();
    o.set("setup_s", p.setup_s);
    o.set("wall_s", p.wall_s);
    o.set("campaign_s", p.campaign_s);
    o.set("shots", p.shots);
    jp.push_back(std::move(o));
  }
  out.set("passes", std::move(jp));
  JsonValue jc = JsonValue::object();
  for (const auto& [key, r] : cells) {
    JsonValue o = JsonValue::object();
    o.set("load", r.load);
    o.set("errors", r.errors);
    o.set("shots", r.shots);
    o.set("deterministic", r.deterministic);
    JsonValue ms = JsonValue::array();
    for (double m : r.ms) ms.push_back(m);
    o.set("ms", std::move(ms));
    jc.set(key, std::move(o));
  }
  out.set("cells", std::move(jc));
  out.set("devices", std::move(dem));
  out.set("omp_threads", omp_threads());

  if (trace) {
    // Traced passes alternate with untraced ones until the budget is spent;
    // the overhead is the median ratio of each traced pass to the untraced
    // pass just before it.
    Tracer tracer(true);
    std::vector<double> ratios;
    PassResult tp;
    for (int i = 0; i < min_passes || seconds_between(t0, Clock::now()) < budget_s; ++i) {
      std::map<std::string, CellResult> scratch;
      const PassResult up = run_pass(devices, seed, scratch, nullptr, untraced);
      tp = run_pass(devices, seed, scratch, nullptr, tracer);
      ratios.push_back(tp.wall_s / up.wall_s);
    }
    std::map<std::string, double> layers;
    std::vector<double> ingest_us;
    for (const Device& dev : devices) trace_device(dev, tracer, layers, ingest_us);
    const EngineCounters& c = tp.counters;
    const auto self = tracer.self_seconds();
    const auto at = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    JsonValue l = JsonValue::object();
    l.set("codes.build_s", at("codes.build"));
    l.set("transpile.route_s", at("transpile.route"));
    l.set("transpile.swaps", layers["transpile.swaps"]);
    l.set("noise.instrument_s", at("noise.instrument"));
    l.set("noise.event_instrument_s", at("noise.event_instrument"));
    l.set("detector.compile_s", at("detector.compile"));
    l.set("detector.dem_s", at("detector.dem"));
    l.set("detector.graph_s", at("detector.graph"));
    l.set("detector.dem_share_of_setup", at("detector.dem") / layers["trace.ctor_s"]);
    l.set("stab.reference_s", at("stab.reference"));
    l.set("stab.frame_shots_per_s", layers["stab.frame_shots"] / layers["stab.frame_s"]);
    l.set("stab.replay_shots_per_s", layers["stab.replay_shots"] / layers["stab.replay_s"]);
    l.set("stab.residual_fraction",
          c.shots == 0 ? 0.0 : static_cast<double>(c.exact_replays) / static_cast<double>(c.shots));
    l.set("stab.exact_replays", c.exact_replays);
    l.set("stab.promo_groups", c.promo_groups);
    l.set("stab.promoted_shots", c.promoted_shots);
    l.set("decoder.mwpm_build_s", at("decoder.mwpm_build"));
    l.set("decoder.decodes_per_s", layers["decoder.decodes"] / layers["decoder.decode_s"]);
    l.set("decoder.cache_lookups", c.cache_lookups);
    l.set("decoder.cache_hit_rate",
          c.cache_lookups == 0 ? 0.0
                               : static_cast<double>(c.cache_hits) / static_cast<double>(c.cache_lookups));
    l.set("decoder.cache_bypassed", c.cache_bypassed);
    l.set("decoder.warm_reuses", layers["decoder.warm_reuses"]);
    l.set("decoder.window_ingest_us.p50", quantile_of(ingest_us, 0.50));
    l.set("decoder.window_ingest_us.p99", quantile_of(ingest_us, 0.99));
    l.set("inject.engine_build_s", tp.setup_s);
    l.set("inject.engine_build_s.max", *std::max_element(tp.engine_build_s.begin(), tp.engine_build_s.end()));
    l.set("inject.campaign_s", tp.campaign_s);
    l.set("inject.chunks_per_campaign",
          static_cast<double>(c.chunks) / static_cast<double>(std::max<std::uint64_t>(1, c.campaigns)));
    l.set("inject.cpu_util", tp.campaign_cpu_s / (tp.campaign_s * omp_threads()));
    l.set("inject.stream_decoder_build_s", layers["inject.stream_decoder_build_s"]);
    l.set("trace.overhead_frac", median_of(ratios) - 1.0);
    l.set("trace.closure_frac", layers["trace.staged_s"] / layers["trace.ctor_s"]);
    out.set("layers", std::move(l));
    out.set("spans", tracer.to_json());
  }
  out.set("peak_rss_mb", peak_rss_mb());
  write_json(out_path, out);
  return 0;
}

}  // namespace perfbench
