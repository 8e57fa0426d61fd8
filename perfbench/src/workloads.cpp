#include "workloads.hpp"

#include <fstream>
#include <memory>
#include <sstream>

#include "cluster/hierarchy.hpp"
#include "core/parallel_batch.hpp"
#include "core/replication.hpp"
#include "exp/experiment.hpp"
#include "obs/tracer.hpp"
#include "sched/overload.hpp"
#include "sched/report.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/storm.hpp"

namespace perfbench {

namespace {

using namespace tapesim;

// Substream tags. The figure cells reuse exp::Experiment's tags so that the
// default seed reproduces the committed figure CSVs.
constexpr std::uint64_t kWorkloadTag = 0x574C;
constexpr std::uint64_t kSampleTag = 0x5251;
constexpr std::uint64_t kOutageRequestTag = 0x4F52;
constexpr std::uint64_t kStormTag = 0x5357;
constexpr std::uint64_t kCellTag = 0x4345;

cluster::ClusterConstraints tape_sized_clusters(const tape::SystemSpec& spec,
                                                double utilization = 0.9) {
  cluster::ClusterConstraints constraints;
  constraints.max_bytes = Bytes{static_cast<Bytes::value_type>(
      utilization * spec.library.tape_capacity.as_double())};
  return constraints;
}

/// The setup stages every cell shares: generate, cluster.
struct CellInputs {
  workload::Workload workload;
  cluster::ObjectClusters clusters;
};

CellInputs generate_and_cluster(const workload::WorkloadConfig& config,
                                const cluster::ClusterConstraints& cons,
                                std::uint64_t seed, Round& r,
                                Recorder* rec) {
  Rng rng{seed};
  Rng workload_rng = rng.fork(kWorkloadTag);
  std::unique_ptr<workload::Workload> wl;
  {
    Timer t("workload.generate_workload", rec);
    wl = std::make_unique<workload::Workload>(
        workload::generate_workload(config, workload_rng));
    r.lap(Layer::kGenerate, t.stop());
  }
  std::unique_ptr<cluster::ObjectClusters> clusters;
  {
    Timer t("cluster.cluster_by_requests", rec);
    clusters = std::make_unique<cluster::ObjectClusters>(
        cluster::cluster_by_requests(*wl, cons));
    r.lap(Layer::kCluster, t.stop());
  }
  r.counts["cluster.clusters"] += static_cast<double>(clusters->size());
  return CellInputs{std::move(*wl), std::move(*clusters)};
}

core::PlacementPlan place(const core::PlacementScheme& scheme,
                          const CellInputs& in, const tape::SystemSpec& spec,
                          Round& r, Recorder* rec) {
  core::PlacementContext context;
  context.workload = &in.workload;
  context.spec = &spec;
  context.clusters = &in.clusters;
  Timer t("core.PlacementScheme::place", rec);
  core::PlacementPlan plan = scheme.place(context);
  r.lap(Layer::kPlace, t.stop());
  r.counts["core.tapes_used"] += plan.tapes_used();
  return plan;
}

/// A simulator plus the tracer riding on it in the traced pass.
struct Sim {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<sched::RetrievalSimulator> sim;
};

Sim build(const core::PlacementPlan& plan, sched::SimulatorConfig config,
          Round& r, const RunOptions& opt) {
  Sim s;
  if (opt.recorder != nullptr) {
    s.tracer = std::make_unique<obs::Tracer>();
    config.tracer = s.tracer.get();
  }
  Timer t("sched.RetrievalSimulator", opt.recorder);
  s.sim = std::make_unique<sched::RetrievalSimulator>(plan, config);
  r.lap(Layer::kBuild, t.stop());
  return s;
}

void serve_closed(sched::RetrievalSimulator& sim,
                  const std::vector<RequestId>& requests, Round& r,
                  Recorder* rec) {
  r.attempted += requests.size();
  for (const RequestId id : requests) {
    Timer t("sched.run_request", rec);
    const metrics::RequestOutcome o = sim.run_request(id);
    r.lap(Layer::kServe, t.stop(), 1);
    r.samples.push_back({o, o.response.count()});
  }
}

void drain(sched::RetrievalSimulator& sim, Round& r, Recorder* rec) {
  Timer t("sched.drain_repairs", rec);
  sim.drain_repairs();
  r.lap(Layer::kDrain, t.stop());
}

/// Reads every counter the simulator's public accessors expose into the
/// round, records the ledgers the run checks afterwards, and writes the
/// tracer's spans in the traced pass. Called once per simulator, after its
/// last simulated request.
void collect(Sim& s, Round& r, const RunOptions& opt, const std::string& tag) {
  sched::RetrievalSimulator& sim = *s.sim;
  const Seconds now = sim.engine().now();
  r.events += sim.engine().events_dispatched();

  const sched::UtilizationReport util =
      sched::utilization_report(sim.system(), now);
  auto& c = r.counts;
  c["tape.mounts"] += static_cast<double>(util.total_mounts());
  for (const sched::DriveUtilization& d : util.drives) {
    c["_tape.streaming_s"] += d.transferring.count();
    c["_tape.drive_s"] += now.count();
  }
  for (const sched::RobotUtilization& robot : util.robots) {
    c["_tape.robot_busy_s"] += robot.busy.count();
    c["_tape.robot_s"] += now.count();
  }

  const sched::RepairStats& rep = sim.repair_stats();
  c["sched.repair.jobs_done"] += static_cast<double>(rep.jobs_completed);
  c["_repair.jobs_scheduled"] += static_cast<double>(rep.jobs_scheduled);
  c["sched.repair.bytes_gb"] += static_cast<double>(rep.bytes_copied) / 1e9;
  c["sched.repair.backlog_end"] += static_cast<double>(sim.repair_backlog());

  const sched::OutageStats& out = sim.outage_stats();
  c["sched.outage.disasters"] += static_cast<double>(out.disasters);
  c["sched.outage.dr_jobs"] += static_cast<double>(out.dr_jobs);
  c["sched.outage.requests_parked"] +=
      static_cast<double>(out.requests_parked);
  c["sched.outage.downtime_s"] += out.downtime.count();

  if (const catalog::Journal* journal = sim.journal()) {
    const catalog::JournalStats& js = journal->stats();
    c["catalog.journal_appends"] += static_cast<double>(js.appends);
    c["catalog.replayed_records"] +=
        static_cast<double>(js.records_replayed);
    c["catalog.lost_records"] += static_cast<double>(js.records_lost);
    if (js.appends !=
        js.records_truncated + js.records_lost + journal->live_records()) {
      r.fail(tag + ": journal appends != truncated + lost + live");
    }
    if (js.records_lost != js.records_reconciled) {
      r.fail(tag + ": journal lost != reconciled");
    }
  }

  sim.governor().finish(now);
  const sched::GovernorStats& gov = sim.governor().stats();
  for (const sched::BudgetLedger& led : gov.ledgers) {
    c["sched.governor.attempts"] += static_cast<double>(led.attempts);
    c["sched.governor.admitted"] += static_cast<double>(led.admitted);
    c["sched.governor.fast_failed"] += static_cast<double>(led.fast_failed);
    if (led.attempts != led.admitted + led.fast_failed ||
        led.fast_failed != led.budget_denied + led.breaker_denied) {
      r.fail(tag + ": governor attempts != admitted + fast_failed");
    }
  }
  c["sched.governor.breaker_opened"] +=
      static_cast<double>(gov.breaker_opened);
  c["sched.governor.metastable_trips"] +=
      static_cast<double>(gov.metastable_trips);

  if (s.tracer != nullptr) {
    r.tracer_spans += s.tracer->spans().size();
    if (!opt.tracer_out.empty() &&
        !s.tracer->write_jsonl_file(opt.tracer_out + "." + tag +
                                    ".jsonl")) {
      r.fail("cannot write tracer spans for " + tag);
    }
    // Unbind before the simulator goes: the tracer must outlive it.
    s.sim.reset();
  }
}

// ---------------------------------------------------------------- paper_figs

/// One sweep cell of Figs 5-9: an experiment config and the schemes run on
/// it. `file`/`row` locate its values in the committed figure CSVs.
struct FigCell {
  const char* file;
  const char* row;
  exp::ExperimentConfig config;
  std::uint32_t pbp_only_m = 0;  ///< Fig 5: parallel batch only, this m.
  const char* pbp_only_column = "";
  bool fig9_components = false;  ///< also Fig 9's response components
};

std::vector<FigCell> figure_cells() {
  std::vector<FigCell> cells;
  const auto gb = [](std::uint64_t n) { return Bytes{n * 1000 * 1000 * 1000}; };
  {
    FigCell c{"fig5_switch_drives.csv", "2", {}, 2, "alpha=0.6"};
    c.config.workload.zipf_alpha = 0.6;
    cells.push_back(c);
  }
  {
    FigCell c{"fig6_alpha.csv", "0", {}};
    c.config.workload.zipf_alpha = 0.0;
    cells.push_back(c);
  }
  {
    FigCell c{"fig6_alpha.csv", "1", {}};
    c.config.workload.zipf_alpha = 1.0;
    cells.push_back(c);
  }
  {
    FigCell c{"fig7_request_size.csv", "80", {}};
    c.config.workload = c.config.workload.with_average_request_size(gb(80));
    cells.push_back(c);
  }
  {
    FigCell c{"fig8_scalability.csv", "2", {}};
    c.config.spec.num_libraries = 2;
    c.config.workload = c.config.workload.with_average_request_size(gb(240));
    c.config.workload.num_objects = 20'000;
    c.config.workload.object_groups = 20'000 / 150;
    cells.push_back(c);
  }
  {
    // Fig 9's components cell is also Fig 7's 160 GB point.
    FigCell c{"fig7_request_size.csv", "160", {}};
    c.fig9_components = true;
    c.config.workload = c.config.workload.with_average_request_size(gb(160));
    cells.push_back(c);
  }
  return cells;
}

const char* column_of(const std::string& scheme_name) {
  if (scheme_name == "parallel batch placement") return "parallel batch";
  if (scheme_name == "object probability placement") {
    return "object probability";
  }
  return "cluster probability";
}

Round run_paper_figs(const RunOptions& opt) {
  Round r;
  Recorder* rec = opt.recorder;
  int cell_index = 0;
  for (FigCell& cell : figure_cells()) {
    const Timer cell_span("cell", rec);
    Timer cell_setup(kSetupPhase, rec);
    exp::ExperimentConfig& cfg = cell.config;
    cfg.seed = opt.seed;
    const CellInputs in = generate_and_cluster(
        cfg.workload, tape_sized_clusters(cfg.spec, cfg.capacity_utilization),
        cfg.seed, r, rec);

    const exp::StandardSchemes standard = exp::make_standard_schemes();
    core::ParallelBatchParams fig5;
    fig5.switch_drives = cell.pbp_only_m;
    const core::ParallelBatchPlacement fig5_scheme(fig5);
    std::vector<const core::PlacementScheme*> schemes;
    if (cell.pbp_only_m > 0) {
      schemes = {&fig5_scheme};
    } else {
      schemes = {standard.parallel_batch.get(),
                 standard.object_probability.get(),
                 standard.cluster_probability.get()};
    }

    // Same request stream for every scheme, as in exp::Experiment.
    std::vector<RequestId> requests;
    {
      Rng rng{cfg.seed};
      Rng sample_rng = rng.fork(kSampleTag);
      const workload::RequestSampler sampler(in.workload);
      for (std::uint32_t i = 0; i < cfg.simulated_requests; ++i) {
        requests.push_back(sampler.sample(sample_rng));
      }
    }
    cell_setup.stop();

    for (const core::PlacementScheme* scheme : schemes) {
      Timer setup(kSetupPhase, rec);
      const core::PlacementPlan plan = place(*scheme, in, cfg.spec, r, rec);
      Sim s = build(plan, cfg.sim, r, opt);
      setup.stop();
      const std::size_t first = r.samples.size();
      {
        const Timer simulate(kSimulatePhase, rec);
        serve_closed(*s.sim, requests, r, rec);
      }
      const std::string name = scheme->name();
      collect(s, r, opt,
              "cell" + std::to_string(cell_index) + "." + column_of(name));

      metrics::ExperimentMetrics m;
      for (std::size_t i = first; i < r.samples.size(); ++i) {
        m.add(r.samples[i].outcome);
      }
      const std::string column =
          cell.pbp_only_m > 0 ? cell.pbp_only_column : column_of(name);
      r.figures.push_back({cell.file, cell.row, column,
                           m.mean_bandwidth().megabytes_per_second()});
      if (cell.fig9_components) {
        const char* f9 = "fig9_components.csv";
        r.figures.push_back({f9, name, "switch (s)", m.mean_switch().count()});
        r.figures.push_back({f9, name, "seek (s)", m.mean_seek().count()});
        r.figures.push_back(
            {f9, name, "transfer (s)", m.mean_transfer().count()});
        r.figures.push_back(
            {f9, name, "response (s)", m.mean_response().count()});
        r.figures.push_back({f9, name, "mean mounts", m.mean_tape_switches()});
      }
    }
    ++cell_index;
  }
  return r;
}

// ------------------------------------------------------------- repair_outage

/// Engine horizon of the 400-request stream with faults off, about the same
/// for both halves; the fault timelines are scaled to it, as
/// bench_outage_recovery and bench_crash_recovery do with their own probes.
constexpr double kOutageHorizon = 216'000.0;
constexpr std::uint32_t kRepairRequests = 400;

/// The two halves of repair_outage, on separate simulators. Media errors,
/// metadata crashes and library outages do not share a simulator because
/// the simulator trips its own invariants when media errors meet library
/// outages, when a site disaster meets background repair, when outages
/// meet a replicated set much larger than ~2,000 objects, or when a crash
/// hits a 60 s group-commit window under repair traffic
/// (perfbench/README.md, "Known simulator defects").
enum class FaultMix {
  /// 10,000 objects: media errors escalate cartridge health, background
  /// repair re-copies the affected objects, the group-commit journal logs
  /// every catalog mutation and metadata crashes replay it.
  kMediaRepair,
  /// 2,000 objects: transient library outages; reads fail over to the
  /// surviving copy.
  kOutage,
};

/// One half. The object set, placement and fault timelines are a fixed
/// scenario (they derive from kDefaultSeed, not from the run's seed), and
/// so is the media half's request stream: the repair engine's host cost
/// grows with its backlog, and which cartridges degrade depends on which
/// ones the requests read, so seed-drawn faults or reads there made host
/// time a lottery over seeds (up to 1.7x between two seeds). The run's
/// seed draws the outage half's request stream.
void run_fault_cell(FaultMix mix, const RunOptions& opt, Round& r) {
  Recorder* rec = opt.recorder;
  const Timer cell_span("cell", rec);
  Timer setup(kSetupPhase, rec);
  const bool media = mix == FaultMix::kMediaRepair;
  const std::uint64_t scenario = Rng{kDefaultSeed}.fork(kCellTag + media)();
  const tape::SystemSpec spec = tape::SystemSpec::paper_default();
  workload::WorkloadConfig wc = workload::WorkloadConfig::paper_default();
  wc.num_objects = media ? 10'000 : 2'000;
  const CellInputs in =
      generate_and_cluster(wc, tape_sized_clusters(spec), scenario, r, rec);
  const core::ParallelBatchPlacement inner{core::ParallelBatchParams{}};
  core::ReplicationPolicy::Params rp;
  rp.replicas = 2;
  const core::ReplicationPolicy replicated(inner, rp);
  const core::PlacementPlan plan = place(replicated, in, spec, r, rec);

  sched::SimulatorConfig config;
  fault::FaultConfig& f = config.faults;
  f.seed = scenario;
  config.repair.enabled = true;
  if (media) {
    f.media_error_per_gb = 0.0004;
    f.crash.metadata_mtbf = Seconds{kOutageHorizon / 8.0};
    config.journal.enabled = true;
    config.journal.fsync = catalog::FsyncPolicy::kGroupCommit;
    config.journal.checkpoint_interval = Seconds{kOutageHorizon / 25.0};
  } else {
    // Many short outages rather than a few long ones, so a run's figures
    // average over many events.
    f.outage.library_mtbf = Seconds{kOutageHorizon / 8.0};
    f.outage.library_mttr = Seconds{kOutageHorizon / 200.0};
  }

  std::vector<RequestId> requests;
  {
    Rng rng{media ? scenario : opt.seed};
    Rng req_rng = rng.fork(kOutageRequestTag + media);
    const workload::RequestSampler sampler(in.workload);
    for (std::uint32_t i = 0; i < kRepairRequests; ++i) {
      requests.push_back(sampler.sample(req_rng));
    }
  }

  Sim s = build(plan, config, r, opt);
  setup.stop();
  {
    const Timer simulate(kSimulatePhase, rec);
    serve_closed(*s.sim, requests, r, rec);
    drain(*s.sim, r, rec);
  }
  collect(s, r, opt, media ? "media_repair" : "outage");
}

Round run_repair_outage(const RunOptions& opt) {
  Round r;
  run_fault_cell(FaultMix::kMediaRepair, opt, r);
  run_fault_cell(FaultMix::kOutage, opt, r);
  return r;
}

// --------------------------------------------------------------- flash_crowd

/// Round figure for the mean service time of this workload's requests
/// (seek + switch + transfer average about 200 s at the default seed). The
/// storm rates, deadlines and governor bin scale with it, as
/// bench_metastable scales them with its calibrated service time.
constexpr double kFlashService = 180.0;
constexpr std::uint32_t kFlashArrivals = 8000;

Round run_flash_crowd(const RunOptions& opt) {
  Round r;
  Recorder* rec = opt.recorder;
  const Timer cell_span("cell", rec);
  Timer setup(kSetupPhase, rec);
  const tape::SystemSpec spec = tape::SystemSpec::paper_default();
  // Many small requests over far more tapes than drives: the storm needs
  // thousands of completions, most of them behind a tape switch.
  workload::WorkloadConfig wc = workload::WorkloadConfig::paper_default();
  wc.num_objects = 12'000;
  wc.num_requests = 3'000;
  wc.min_objects_per_request = 4;
  wc.max_objects_per_request = 8;
  const CellInputs in =
      generate_and_cluster(wc, tape_sized_clusters(spec), opt.seed, r, rec);
  const core::ParallelBatchPlacement pbp{core::ParallelBatchParams{}};
  const core::PlacementPlan plan = place(pbp, in, spec, r, rec);

  workload::StormConfig storm;
  storm.base_rate = 0.75 / kFlashService;
  storm.burst_rate = 2.0 / kFlashService;  // the flash crowd: 2x capacity
  storm.mean_burst_duration = Seconds{kFlashService * 10.0};
  storm.mean_calm_duration = Seconds{kFlashService * 10.0};
  storm.batch_fraction = 0.5;
  std::vector<workload::TimedRequest> arrivals;
  {
    Rng rng{opt.seed};
    Rng storm_rng = rng.fork(kStormTag);
    const workload::RequestSampler sampler(in.workload);
    Timer t("workload.storm_arrivals", rec);
    arrivals =
        workload::storm_arrivals(sampler, storm, kFlashArrivals, storm_rng);
    r.lap(Layer::kArrivals, t.stop());
  }

  sched::SimulatorConfig config;
  fault::FaultConfig& f = config.faults;
  f.seed = opt.seed;
  f.mount_failure_prob = 0.01;
  f.media_error_per_gb = 0.005;
  f.lost_after = 64;  // degrade, don't destroy: there is no second copy
  f.burst.at = arrivals[kFlashArrivals / 4].time;
  f.burst.duration = arrivals[kFlashArrivals / 4 + 28].time - f.burst.at;
  f.burst.mount_failure_prob = 0.6;
  f.burst.media_error_per_gb = 1.5;
  sched::GovernorConfig& g = config.governor;
  g.enabled = true;
  g.budgets.retry_ratio = 0.4;
  g.budgets.failover_ratio = 1.0;
  g.metastable.bin = Seconds{kFlashService * 2.0};
  g.metastable.collapse_fraction = 0.15;
  g.metastable.recover_fraction = 0.30;
  g.metastable.release_bins = 1;
  g.metastable.budget_clamp = 1.0;

  sched::OverloadConfig overload;
  overload.deadline.enabled = true;
  overload.deadline.base = Seconds{kFlashService * 3.0};
  overload.deadline.per_gb = Seconds{25.0};
  overload.shed = sched::ShedPolicy::kPriority;
  overload.admission.max_queue_depth = 8;
  overload.admission.reject_hopeless = true;

  Sim s = build(plan, config, r, opt);
  setup.stop();
  sched::OverloadReport report;
  {
    const Timer simulate(kSimulatePhase, rec);
    sched::OverloadRunner runner(*s.sim, overload, s.tracer.get());
    Timer t("sched.OverloadRunner::run", rec);
    report = runner.run(arrivals);
    r.lap(Layer::kServe, t.stop(), kFlashArrivals);
  }
  r.attempted += arrivals.size();
  for (const sched::OverloadOutcome& o : report.outcomes) {
    r.samples.push_back({o.outcome, o.sojourn.count()});
  }
  r.counts["sched.overload.served"] += static_cast<double>(report.served);
  r.counts["sched.overload.shed"] += static_cast<double>(report.shed_total());
  r.counts["sched.overload.expired"] +=
      static_cast<double>(report.expired_total());
  for (const double w : report.queue_waits.samples()) {
    r.queue_waits.push_back(w);
  }
  // The fault burst adds unavailable and partial outcomes, which the
  // runner counts in none of its three tallies.
  std::uint64_t by_status[5] = {};
  for (const sched::OverloadOutcome& o : report.outcomes) {
    ++by_status[static_cast<std::size_t>(o.outcome.status)];
  }
  const std::uint64_t not_served =
      by_status[static_cast<std::size_t>(metrics::RequestStatus::kPartial)] +
      by_status[static_cast<std::size_t>(
          metrics::RequestStatus::kUnavailable)];
  if (report.served + report.shed_total() + report.expired_total() +
              not_served !=
          arrivals.size() ||
      report.served !=
          by_status[static_cast<std::size_t>(
              metrics::RequestStatus::kServed)] ||
      report.shed_total() !=
          by_status[static_cast<std::size_t>(metrics::RequestStatus::kShed)] ||
      report.expired_total() !=
          by_status[static_cast<std::size_t>(
              metrics::RequestStatus::kDeadlineExpired)]) {
    r.fail("overload served + shed + expired + unavailable != offered");
  }
  collect(s, r, opt, "flash_crowd");
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"paper_figs", 99.0, &run_paper_figs},
      {"repair_outage", 95.0, &run_repair_outage},
      {"flash_crowd", 90.0, &run_flash_crowd},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

}  // namespace

std::vector<std::string> cross_check_figures(
    const std::vector<FigureValue>& values, const std::string& reference_dir,
    std::size_t* checked) {
  std::vector<std::string> mismatches;
  *checked = 0;
  for (const FigureValue& v : values) {
    std::ifstream in(reference_dir + "/" + v.file);
    if (!in) {
      mismatches.push_back("missing reference " + v.file);
      continue;
    }
    std::string line;
    std::getline(in, line);
    const std::vector<std::string> header = split_csv_line(line);
    std::size_t col = header.size();
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == v.column) col = i;
    }
    bool found = false;
    while (std::getline(in, line)) {
      const std::vector<std::string> cells = split_csv_line(line);
      if (cells.empty() || cells[0] != v.row || col >= cells.size()) continue;
      found = true;
      ++*checked;
      const std::string got = Table::num(v.value);
      if (got != cells[col]) {
        mismatches.push_back(v.file + " [" + v.row + ", " + v.column +
                             "]: reference " + cells[col] + ", run " + got);
      }
    }
    if (!found) {
      mismatches.push_back(v.file + " has no cell [" + v.row + ", " +
                           v.column + "]");
    }
  }
  return mismatches;
}

}  // namespace perfbench
