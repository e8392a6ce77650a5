//===-- perfbench/driver.cpp - The repository benchmark's workloads -------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one seeded workload through the library's public API and prints
/// one JSON document of raw measurements on its last stdout line: timed
/// samples (ns, the benchmark's own steady clock), correctness checks,
/// enclosing-section walls, counters and — with --trace 1 — the spans
/// recorded around each layer's public entry points. run.py turns that
/// document into the named metrics; nothing here is derived from the
/// library's RunStats timings.
///
/// Workloads (see README.md for why each exists):
///   pusher-dipole  standalone Boris push, SoA float, precalculated fields
///   pic-dense      warm e-p plasma, many particles per cell, small grid
///   pic-window     moving-window pulse, one pair per cell, large grid
///   serve-mix      a closed burst of small Langmuir jobs via hichi_serve
///
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/Core.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "fields/PrecalculatedFields.h"
#include "perfmodel/Calibration.h"
#include "perfmodel/MachineModel.h"
#include "perfmodel/RooflineModel.h"
#include "pic/Diagnostics.h"
#include "pic/FieldInterpolator.h"
#include "pic/ParticleSorter.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"
#include "serve/BackendPool.h"
#include "serve/JobRunner.h"
#include "serve/Scheduler.h"
#include "support/Json.h"
#include "threading/ParallelFor.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace hichi;

namespace {

//===----------------------------------------------------------------------===//
// Clock, spans and the raw report
//===----------------------------------------------------------------------===//

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  std::int64_t Begin = 0;
  std::int64_t End = 0;
  int Parent = -1;
};

/// The raw measurements of one run, written as JSON at the end.
struct Report {
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Counters;
  struct Check {
    std::string Name;
    bool Ok;
    std::string Detail;
  };
  std::vector<Check> Checks;
  long long Attempted = 0;
  long long Failed = 0;
  struct SectionWall {
    std::string Name;
    double WallNs;
    double SampleSumNs;
    double ReportedSumNs;
  };
  std::vector<SectionWall> Sections;
  std::vector<Span> Spans;
  std::string Profile; ///< hichi-machine-v1 JSON (traced runs)

  /// Records one checked operation (a run or a job).
  void operation(const std::string &Name, bool Ok,
                 const std::string &Detail = "") {
    ++Attempted;
    if (!Ok)
      ++Failed;
    Checks.push_back({Name, Ok, Detail});
  }
};

/// Span recorder: open() returns the span's index, close() stamps its
/// end. Spans nest through an explicit parent index.
class Tracer {
public:
  explicit Tracer(Report &R) : R(R) {}
  int open(const std::string &Name, int Parent = -1) {
    R.Spans.push_back({Name, nowNs(), 0, Parent});
    return int(R.Spans.size()) - 1;
  }
  double close(int Id) {
    Span &S = R.Spans[std::size_t(Id)];
    S.End = nowNs();
    return double(S.End - S.Begin);
  }

private:
  Report &R;
};

/// Times a section that encloses a set of timed calls, for the
/// wall-clock self-check. Each call adds the benchmark's own sample and
/// the wall time the library reports for the same call (the stage
/// RunStats::HostNs it accumulated). Neither sum may exceed the section's
/// wall: a library figure that does is a busy-time sum over workers
/// reported as wall time.
class Section {
public:
  Section(Report &R, std::string Name) : R(R), Name(std::move(Name)) {
    Begin = nowNs();
  }
  double elapsedNs() const { return double(nowNs() - Begin); }
  void add(double SampleNs, double ReportedNs) {
    Sum += SampleNs;
    Reported += ReportedNs;
  }
  void close() { R.Sections.push_back({Name, elapsedNs(), Sum, Reported}); }

private:
  Report &R;
  std::string Name;
  std::int64_t Begin = 0;
  double Sum = 0;
  double Reported = 0;
};

using json::escapeJsonString;

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string toJson(const Report &R, const std::string &Workload,
                   unsigned long long Seed, bool Trace) {
  std::ostringstream O;
  O << "{\"workload\":\"" << escapeJsonString(Workload)
    << "\",\"seed\":" << Seed << ",\"trace\":" << (Trace ? 1 : 0)
    << ",\"build\":{\"type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"compiler\":\"" << PERFBENCH_COMPILER
    << "\",\"hardware_threads\":" << std::thread::hardware_concurrency()
    << "},\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
    << ",\"samples\":{";
  bool First = true;
  for (const auto &[Name, Values] : R.Samples) {
    O << (First ? "" : ",") << "\"" << escapeJsonString(Name) << "\":[";
    for (std::size_t I = 0; I < Values.size(); ++I)
      O << (I ? "," : "") << num(Values[I]);
    O << "]";
    First = false;
  }
  O << "},\"counters\":{";
  First = true;
  for (const auto &[Name, Value] : R.Counters) {
    O << (First ? "" : ",") << "\"" << escapeJsonString(Name)
      << "\":" << num(Value);
    First = false;
  }
  O << "},\"checks\":[";
  for (std::size_t I = 0; I < R.Checks.size(); ++I)
    O << (I ? "," : "") << "{\"name\":\"" << escapeJsonString(R.Checks[I].Name)
      << "\",\"ok\":" << (R.Checks[I].Ok ? "true" : "false")
      << ",\"detail\":\"" << escapeJsonString(R.Checks[I].Detail) << "\"}";
  O << "],\"sections\":[";
  for (std::size_t I = 0; I < R.Sections.size(); ++I)
    O << (I ? "," : "") << "{\"name\":\""
      << escapeJsonString(R.Sections[I].Name)
      << "\",\"wall_ns\":" << num(R.Sections[I].WallNs)
      << ",\"sample_sum_ns\":" << num(R.Sections[I].SampleSumNs)
      << ",\"reported_sum_ns\":" << num(R.Sections[I].ReportedSumNs) << "}";
  O << "],\"spans\":[";
  for (std::size_t I = 0; I < R.Spans.size(); ++I) {
    const Span &S = R.Spans[I];
    O << (I ? "," : "") << "[\"" << escapeJsonString(S.Name) << "\"," << S.Begin
      << "," << S.End << "," << S.Parent << "]";
  }
  O << "],\"profile\":" << (R.Profile.empty() ? "null" : R.Profile) << "}";
  return O.str();
}

struct Config {
  std::string Workload;
  unsigned long long Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  int Threads = 1; ///< the CPUs of the process's affinity mask
};

int affinityThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1, int(std::thread::hardware_concurrency()));
}

/// Wall time a PIC simulation reports for its steps so far: the graph
/// steps' wall in graph mode (whose stage stats still count the kernels
/// inside it), else the sum of the push, deposit and field stage walls.
double stageHostNs(const pic::PicSimulation<double> &S) {
  if (S.usesStepGraph())
    return S.graphStats().HostNs;
  return S.pushStats().HostNs + S.depositStats().HostNs +
         S.fieldStats().HostNs;
}

std::string hex(std::uint64_t H) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

/// Seed mixing: every workload derives its generators from the run seed
/// only, so the same seed always gives the same inputs.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Set-up runs at least this often and for at least this long in a run;
/// setup_s is the median. A set-up is tens of milliseconds on the pic-*
/// and serve-mix workloads, and single ones vary by half of that.
constexpr int SetupRepeats = 9;
constexpr double SetupSeconds = 1.0;

/// Times one set-up. What it built is freed by the caller, outside the
/// timing.
template <class Fn> auto timedSetup(Report &R, Fn &SetupOnce) {
  const std::int64_t T0 = nowNs();
  auto Built = SetupOnce();
  R.Samples["setup_ns"].push_back(double(nowNs() - T0));
  return Built;
}

/// Notes the peak resident set so far, then times the set-ups after the
/// run's own. They follow the measurement, so the set-up samples come
/// from both ends of the run, and the peak covers one set-up and the
/// measurement, as a user's run would, not the allocator's leftovers of
/// the repeats.
template <class Fn> void finishSetups(Report &R, Fn &SetupOnce) {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  R.Counters["peak_rss_kb"] = double(Usage.ru_maxrss);
  const std::vector<double> &Done = R.Samples["setup_ns"];
  while (int(Done.size()) < SetupRepeats ||
         std::accumulate(Done.begin(), Done.end(), 0.0) < SetupSeconds * 1e9)
    timedSetup(R, SetupOnce);
}

perfmodel::MachineProfile calibrate(Report &R, Tracer &T, int Threads) {
  const int Id = T.open("perfmodel.calibrate");
  perfmodel::CalibrationConfig Cfg = perfmodel::CalibrationConfig::fast();
  Cfg.Threads = Threads;
  perfmodel::MachineProfile P = perfmodel::Calibration::measure(Cfg);
  T.close(Id);
  R.Profile = perfmodel::Calibration::toJson(P);
  // JSON strings hold no raw newlines, so this keeps the document on one
  // line without touching its content.
  std::replace(R.Profile.begin(), R.Profile.end(), '\n', ' ');
  return P;
}

//===----------------------------------------------------------------------===//
// Interleaved measurement
//===----------------------------------------------------------------------===//

/// One backend's run of a workload inside the interleaved measurement.
struct Lane {
  std::string Key;                     ///< sample series name
  int PerTurn = 1;                     ///< steps per turn
  /// Advances one step (lane step no.); \returns the wall time the
  /// library reports for it.
  std::function<double(int)> Step;
  std::function<double()> Items;       ///< particles the next step moves
  std::function<std::uint64_t()> Hash; ///< state hash
  int MaxSteps = 0;                    ///< stop after this many (0 = never)
  int Done = 0;
};

/// Runs \p Lanes in turns, PerTurn steps of each, round after round, until
/// \p Seconds have passed and at least \p MinRounds rounds ran, or
/// \p MaxRounds rounds ran (0 = no limit). Each backend is thus sampled
/// across the whole run, not in one window of it: on a shared host the
/// speed drifts on a scale of seconds. Records every step's wall and
/// particle count, and each lane's state hash after \p RefSteps of its
/// steps.
void interleave(Report &R, std::vector<Lane> &Lanes, double Seconds,
                int MinRounds, int MaxRounds, int RefSteps,
                std::map<std::string, std::uint64_t> &Hashes) {
  Section All(R, "interleaved");
  for (int Round = 0;
       (Round < MinRounds || All.elapsedNs() < Seconds * 1e9) &&
       (!MaxRounds || Round < MaxRounds);
       ++Round)
    for (Lane &L : Lanes) {
      Section Turn(R, L.Key + " turn");
      for (int K = 0; K < L.PerTurn && (!L.MaxSteps || L.Done < L.MaxSteps);
           ++K) {
        const double N = L.Items();
        const std::int64_t T0 = nowNs();
        const double Reported = L.Step(L.Done);
        const double Ns = double(nowNs() - T0);
        R.Samples[L.Key].push_back(Ns);
        R.Samples[L.Key + "_particles"].push_back(N);
        Turn.add(Ns, Reported);
        All.add(Ns, Reported);
        if (++L.Done == RefSteps)
          Hashes[L.Key] = L.Hash();
      }
      Turn.close();
    }
  All.close();
}

/// Records one checked operation per lane hash against the serial one.
void checkHashes(Report &R, const std::map<std::string, std::uint64_t> &H) {
  auto Ref = H.find("serial_step_ns");
  R.operation("serial reference hash", Ref != H.end());
  if (Ref == H.end())
    return;
  for (const auto &[Key, Hash] : H)
    if (Key != Ref->first)
      R.operation("hash " + Key + " == serial", Hash == Ref->second,
                  hex(Hash) + " vs " + hex(Ref->second));
}

//===----------------------------------------------------------------------===//
// pusher-dipole: the paper's Section 5.2 standalone pusher
//===----------------------------------------------------------------------===//

namespace pusher {

using Real = float;
using Array = ParticleArraySoA<Real>;
constexpr Index Particles = 4'000'000;
constexpr int RefSteps = 8; ///< steps after which all hashes must agree

std::uint64_t stateHash(const Array &P) {
  std::uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&Hash](Real V) {
    unsigned char Bytes[sizeof(Real)];
    std::memcpy(Bytes, &V, sizeof(Real));
    for (unsigned char B : Bytes) {
      Hash ^= B;
      Hash *= 1099511628211ULL;
    }
  };
  for (Index I = 0, E = P.size(); I < E; ++I) {
    auto S = P[I].load();
    for (Real V : {S.Position.X, S.Position.Y, S.Position.Z, S.Momentum.X,
                   S.Momentum.Y, S.Momentum.Z, S.Gamma})
      Mix(V);
  }
  return Hash;
}

void copyEnsemble(const Array &From, Array &To) {
  To.clear();
  for (Index I = 0, E = From.size(); I < E; ++I)
    To.pushBack(ParticleT<Real>{});
  auto Src = From.view();
  auto Dst = To.view();
  threading::staticParallelFor(0, From.size(),
                               [&](Index I) { Dst[I].store(Src[I].load()); });
}

struct State {
  Array Work{Particles};
  std::unique_ptr<PrecalculatedFields<Real>> Fields;
  ParticleTypeTable<Real> Types = ParticleTypeTable<Real>::cgs();
  Real Dt = 0;
  minisycl::queue Queue{minisycl::cpu_device()};
  exec::ExecutionContext Ctx;
  std::map<std::string, std::unique_ptr<exec::ExecutionBackend>> Backends;
};

/// Advances \p P by one step on \p Backend; \returns its launch ledger
/// (only the counts are read from it).
RunStats step(State &S, const std::string &Backend, Array &P, int StepIndex) {
  exec::StepLoopOptions<Real> Opts;
  Opts.StartTime = Real(StepIndex) * S.Dt;
  return exec::runStepLoop<BorisPusher>(*S.Backends.at(Backend), S.Ctx, P,
                                        S.Fields->source(), S.Types, S.Dt, 1,
                                        Opts);
}

/// Construction, seeding, field precompute and the warm-up step.
std::unique_ptr<State> setup(const Config &Cfg, Tracer *T) {
  auto S = std::make_unique<State>();
  const Real Radius = Real(dipole_benchmark::SeedRadiusFactor *
                           dipole_benchmark::Wavelength);
  initializeBallAtRest(S->Work, Particles, Vector3<Real>::zero(), Radius,
                       PS_Electron, mixSeed(Cfg.Seed, 1));
  S->Dt = Real(dipole_benchmark::TimeStepFraction * 2.0 * constants::Pi /
               dipole_benchmark::WaveFrequency);
  S->Fields = std::make_unique<PrecalculatedFields<Real>>(Particles);
  const auto Wave = DipoleWaveSource<Real>::paperBenchmark();
  const int Id = T ? T->open("fields.precalc") : -1;
  S->Fields->precompute(S->Work, Wave, Real(0));
  if (T)
    T->close(Id);
  S->Ctx.Queue = &S->Queue;
  for (const char *Name : {"openmp", "dpcpp", "serial"})
    S->Backends[Name] = exec::createBackend(Name, {Cfg.Threads, 0});
  step(*S, "openmp", S->Work, 0);
  return S;
}

/// The measurement; \p S and the lanes' copies are freed when it returns.
void measure(const Config &Cfg, Report &R, Tracer &T,
             std::unique_ptr<State> S) {
  R.Counters["particles"] = double(Particles);
  R.Counters["threads"] = Cfg.Threads;

  // Every backend steps its own copy of the post-warm-up ensemble.
  Array Serial(Particles), Dpcpp(Particles);
  copyEnsemble(S->Work, Serial);
  copyEnsemble(S->Work, Dpcpp);
  auto lane = [&](const std::string &Key, const std::string &Backend,
                  Array &P, int PerTurn) {
    Lane L;
    L.Key = Key;
    L.PerTurn = PerTurn;
    L.Step = [&S, Backend, &P](int K) {
      return step(*S, Backend, P, 1 + K).HostNs;
    };
    L.Items = [] { return double(Particles); };
    L.Hash = [&P] { return stateHash(P); };
    return L;
  };
  std::map<std::string, std::uint64_t> Hashes;
  // A parallel turn of 10 steps is one nsps sample; 10 rounds give the
  // 100 steps the p90 needs and take the serial lane past RefSteps.
  std::vector<Lane> Lanes = {lane("parallel_step_ns", "openmp", S->Work, 10),
                             lane("serial_step_ns", "serial", Serial, 2),
                             lane("dpcpp_step_ns", "dpcpp", Dpcpp, 4)};
  // Serial timings are too host-dependent for an end-to-end bound: the
  // timed run steps the serial lane only to its reference hash.
  if (!Cfg.Trace)
    Lanes[1].MaxSteps = RefSteps;
  R.Counters["block_steps"] = Lanes[0].PerTurn;
  if (!Cfg.Trace) {
    interleave(R, Lanes, Cfg.Seconds, 10, 0, RefSteps, Hashes);
  } else {
    const perfmodel::MachineProfile Profile = calibrate(R, T, Cfg.Threads);
    const perfmodel::CpuMachine M = perfmodel::CpuMachine::fromProfile(Profile);
    R.Counters["pred.push_ns"] =
        perfmodel::predictCpuNsps(M, perfmodel::Scenario::PrecalculatedFields,
                                  perfmodel::Layout::SoA,
                                  perfmodel::Precision::Single,
                                  perfmodel::Parallelization::OpenMP,
                                  std::min(Cfg.Threads, M.coreCount()))
            .Nsps;
    // Bytes per particle-step of this kernel, computed.
    R.Counters["push.bytes_per_item"] =
        perfmodel::trafficPerParticleStep(
            perfmodel::Scenario::PrecalculatedFields, perfmodel::Layout::SoA,
            perfmodel::Precision::Single)
            .totalWithRfo();
    Lanes[0].Key = "untraced_step_ns";
    interleave(R, Lanes, 0, 4, 0, RefSteps, Hashes);
    // Traced and plain steps alternate, so the tracing overhead compares
    // like with like.
    RunStats Ledger;
    const int Traced = 2 * Lanes[0].PerTurn;
    for (int K = 0, Step = 1 + Lanes[0].Done; K < Traced; ++K) {
      const int Id = T.open("core.push");
      const RunStats Stats = step(*S, "openmp", S->Work, Step++);
      T.close(Id);
      Ledger.Launches += Stats.Launches;
      Ledger.SubmitNs += Stats.SubmitNs;
      const std::int64_t T0 = nowNs();
      step(*S, "openmp", S->Work, Step++);
      R.Samples["untraced_alt_step_ns"].push_back(double(nowNs() - T0));
    }
    R.Counters["exec.launches"] = double(Ledger.Launches);
    R.Counters["exec.submit_ns"] = Ledger.SubmitNs;
    R.Counters["exec.steps"] = Traced;
  }
  checkHashes(R, Hashes);
}

void run(const Config &Cfg, Report &R) {
  Tracer T(R);
  auto SetupOnce = [&] { return setup(Cfg, Cfg.Trace ? &T : nullptr); };
  measure(Cfg, R, T, timedSetup(R, SetupOnce));
  finishSetups(R, SetupOnce);
}

} // namespace pusher

//===----------------------------------------------------------------------===//
// pic-dense / pic-window: the full PIC step
//===----------------------------------------------------------------------===//

namespace picwl {

using Real = double;
using Sim = pic::PicSimulation<Real>;
using Array = ParticleArrayAoS<Real>;
constexpr int SortEvery = 50; ///< PicOptions' default locality sort
constexpr int RefSteps = 50;  ///< one sort period

struct Problem {
  bool Window = false;
  pic::ScenarioSetup<Real> Setup;
};

/// A warm neutral electron-proton plasma: 16 + 16 particles per cell at
/// seeded random positions, seeded Maxwellian momenta (v_th,e = 0.05 c,
/// protons at the same temperature); omega_pe = 1.
Problem makeDense(std::uint64_t Seed) {
  Problem P;
  pic::ScenarioSetup<Real> &S = P.Setup;
  S.Name = "pic-dense";
  S.Grid = {32, 8, 8};
  const int PerCell = 16;
  const Index Ne = S.Grid.count() * PerCell;
  const double Volume = double(S.Grid.Nx) * S.Step.X * double(S.Grid.Ny) *
                        S.Step.Y * double(S.Grid.Nz) * S.Step.Z;
  const Real Weight = Real(Volume / (4.0 * constants::Pi * double(Ne)));
  const Real Vth = 0.05;
  RandomStream<Real> Rng(mixSeed(Seed, 2));
  auto gauss = [&Rng]() {
    const Real U1 = Real(1) - Rng.uniform01(); // (0, 1]
    const Real U2 = Rng.uniform01();
    return std::sqrt(Real(-2) * std::log(U1)) *
           std::cos(Real(2 * constants::Pi) * U2);
  };
  const Vector3<Real> L(Real(S.Grid.Nx) * S.Step.X,
                        Real(S.Grid.Ny) * S.Step.Y,
                        Real(S.Grid.Nz) * S.Step.Z);
  for (short Type : {short(PS_Electron), short(PS_Proton)}) {
    const Real Mass = S.Types[Type].Mass;
    const Real Sigma = Vth * std::sqrt(Mass * S.Types[PS_Electron].Mass);
    for (Index I = 0; I < Ne; ++I) {
      ParticleT<Real> Part;
      Part.Position = {Rng.uniform01() * L.X, Rng.uniform01() * L.Y,
                       Rng.uniform01() * L.Z};
      Part.Momentum = {Sigma * gauss(), Sigma * gauss(), Sigma * gauss()};
      Part.Weight = Weight;
      Part.Type = Type;
      S.Particles.push_back(Part);
    }
  }
  return P;
}

/// The moving-window scenario on a 256x16x16 grid with one e+e- pair per
/// cell. The pulse amplitude is seeded, and each pair gets one seeded
/// transverse (y, z) in-cell offset, so the pair stays co-located. x stays
/// at the cell centre the scenario and the injector use: a particle the
/// pulse carries across the trailing edge is retired early, and then the
/// live count, which the retired == injected gate holds constant, would
/// drift with the seed.
Problem makeWindow(std::uint64_t Seed) {
  RandomStream<Real> Rng(mixSeed(Seed, 3));
  const Real Amplitude = Rng.uniform(Real(0.04), Real(0.06));
  Problem P;
  P.Window = true;
  P.Setup = pic::makeMovingWindowScenario<Real>({256, 16, 16}, 1, Amplitude,
                                                Real(1));
  pic::ScenarioSetup<Real> &S = P.Setup;
  for (std::size_t I = 0; I + 1 < S.Particles.size(); I += 2) {
    const Vector3<Real> D(Real(0), Rng.uniform(-0.4, 0.4) * S.Step.Y,
                          Rng.uniform(-0.4, 0.4) * S.Step.Z);
    S.Particles[I].Position += D;
    S.Particles[I + 1].Position += D;
  }
  return P;
}

pic::PicOptions<Real> optionsFor(const Problem &P, const std::string &Backend,
                                 int Threads) {
  pic::PicOptions<Real> O;
  O.LightVelocity = 1;
  O.SortEveryNSteps = SortEvery;
  O.PushBackend = O.DepositBackend = O.FieldBackend = Backend;
  O.PushThreads = O.DepositThreads = O.FieldThreads = Threads;
  O.MovingWindow = P.Setup.MovingWindow;
  return O;
}

std::unique_ptr<Sim> makeSim(const Problem &P, const std::string &Backend,
                             int Threads) {
  const pic::ScenarioSetup<Real> &S = P.Setup;
  auto Out = std::make_unique<Sim>(
      S.Grid, S.Origin, S.Step,
      Index(S.Particles.size()) + S.ExtraCapacity, S.Types,
      optionsFor(P, Backend, Threads));
  pic::seedScenario(*Out, S);
  return Out;
}

double totalEnergy(const Sim &S) {
  return S.fieldEnergy() +
         pic::summarize(S.particles(), S.types(), Real(1)).TotalKineticEnergy;
}

/// Stage objects of the traced composition: the same public entry points
/// PicSimulation's classic step runs, applied to a copy of its state.
struct Composer {
  std::unique_ptr<exec::ExecutionBackend> Push, Deposit, Field, Serial;
  std::unique_ptr<pic::TiledCurrentAccumulator<Real>> Tiles, OneTile;
  std::unique_ptr<pic::FdtdSlabPartition<Real>> Partition;
  pic::FdtdSolver<Real> Solver{Real(1)};
  std::unique_ptr<minisycl::queue> Queue;
  exec::ExecutionContext Ctx;
  std::vector<Vector3<Real>> OldPos, NewPos;
  RunStats Ledger;

  Composer(const Sim &A, const std::string &Backend, int Threads) {
    Push = exec::createBackend(Backend, {Threads, 0});
    Deposit = exec::createBackend(Backend, {Threads, 0});
    Field = exec::createBackend(Backend, {Threads, 0});
    Serial = exec::createBackend("serial");
    if (Push->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Ctx.Queue = Queue.get();
    const int NumTiles = 2 * std::max(1, Threads);
    const auto &G = A.grid();
    Tiles = std::make_unique<pic::TiledCurrentAccumulator<Real>>(
        G.size(), G.baseOrigin(), G.step(), NumTiles);
    OneTile = std::make_unique<pic::TiledCurrentAccumulator<Real>>(
        G.size(), G.baseOrigin(), G.step(), 1);
    Partition =
        std::make_unique<pic::FdtdSlabPartition<Real>>(G.size(), NumTiles);
  }
};

void copyParticles(const Array &From, Array &To) {
  To.clear();
  for (Index I = 0, E = From.size(); I < E; ++I)
    To.pushBack(From[I].load());
}

/// One traced step: the stages on a copy (spans per stage), then the real
/// PicSimulation::step on the original (the step-total span). \returns
/// true when the copy's state equals the original's afterwards (always
/// expected except on window-shift steps, which only the real step does).
bool tracedStep(Sim &A, Composer &C, pic::YeeGrid<Real> &Grid, Array &Parts,
                Tracer &T, Report &R, bool &Shifted) {
  Grid = A.grid();
  copyParticles(A.particles(), Parts);
  const Real Dt = A.timeStep();
  const auto View = Parts.view();
  const Index N = View.size();
  const ParticleTypeInfo<Real> *Types = A.types().data();
  C.OldPos.resize(std::size_t(N));
  C.NewPos.resize(std::size_t(N));
  for (Index I = 0; I < N; ++I)
    C.OldPos[std::size_t(I)] = View[I].position();

  int Id = T.open("pic.gather_push");
  exec::StepLoopOptions<Real> Opts;
  Opts.LightVelocity = 1;
  Opts.StartTime = A.time();
  exec::runStepLoop<BorisPusher>(*C.Push, C.Ctx, Parts,
                                 pic::YeeInterpolator<Real>(Grid), A.types(),
                                 Dt, 1, Opts);
  T.close(Id);
  for (Index I = 0; I < N; ++I) {
    auto P = View[I];
    const Vector3<Real> Pos = P.position();
    C.NewPos[std::size_t(I)] = Pos;
    P.setPosition(Grid.wrapPosition(Pos));
  }
  Grid.clearCurrent();
  Id = T.open("pic.deposit_serial");
  C.OneTile->deposit(Grid, View, C.OldPos.data(), C.NewPos.data(), Types, Dt,
                     true, *C.Serial, C.Ctx, C.Ledger);
  T.close(Id);
  Grid.clearCurrent();
  Id = T.open("pic.deposit");
  C.Tiles->deposit(Grid, View, C.OldPos.data(), C.NewPos.data(), Types, Dt,
                   true, *C.Deposit, C.Ctx, C.Ledger);
  T.close(Id);
  Id = T.open("pic.field");
  C.Solver.step(Grid, Dt, *C.Partition, *C.Field, C.Ctx, C.Ledger);
  T.close(Id);
  if ((A.stepCount() + 1) % SortEvery == 0) {
    Id = T.open("pic.sort");
    pic::sortByCell(Parts, pic::CellIndexer<Real>(Grid));
    T.close(Id);
  }

  const long long ShiftsBefore = A.windowShiftCount();
  Id = T.open("pic.step");
  A.step();
  const double StepNs = T.close(Id);
  Shifted = A.windowShiftCount() != ShiftsBefore;
  R.Samples[Shifted ? "traced_shift_step_ns" : "traced_plain_step_ns"]
      .push_back(StepNs);
  R.Samples["traced_step_particles"].push_back(double(N));
  return pic::picStateHash(Parts, Grid) == pic::picStateHash(A.particles(),
                                                             A.grid());
}

void run(const Config &Cfg, Report &R) {
  const Problem P = Cfg.Workload == "pic-window" ? makeWindow(Cfg.Seed)
                                                 : makeDense(Cfg.Seed);
  const std::string Parallel = "openmp";
  Tracer T(R);
  auto SetupOnce = [&] {
    std::unique_ptr<Sim> S = makeSim(P, Parallel, Cfg.Threads);
    S->step();
    return S;
  };
  std::unique_ptr<Sim> A = timedSetup(R, SetupOnce);
  const Index Live0 = A->particles().size();
  R.Counters["particles"] = double(Live0);
  R.Counters["cells"] = double(A->grid().size().count());
  R.Counters["block_steps"] = SortEvery;
  R.Counters["threads"] = Cfg.Threads;

  auto checkSim = [&](const Sim &S, const std::string &Key) {
    const double E = totalEnergy(S);
    R.operation("energy finite (" + Key + ")", std::isfinite(E), num(E));
    if (!P.Window) {
      R.operation("live count constant (" + Key + ")",
                  S.particles().size() == Live0,
                  std::to_string(S.particles().size()));
    } else {
      R.operation("retired == injected (" + Key + ")",
                  S.windowRetiredCount() == S.windowInjectedCount(),
                  std::to_string(S.windowRetiredCount()) + " vs " +
                      std::to_string(S.windowInjectedCount()));
      R.operation("live == initial + injected - retired (" + Key + ")",
                  (long long)S.particles().size() ==
                      (long long)Live0 + S.windowInjectedCount() -
                          S.windowRetiredCount(),
                  std::to_string(S.particles().size()));
      const long long Due =
          (long long)std::floor(double(S.time()) / double(S.grid().step().X));
      R.operation("window planes == floor(c t / dx) (" + Key + ")",
                  (long long)S.windowOriginPlanes() == Due &&
                      S.windowShiftCount() > 0,
                  std::to_string(S.windowOriginPlanes()) + " vs " +
                      std::to_string(Due) + ", " +
                      std::to_string(S.windowShiftCount()) + " shifts");
    }
  };
  // The references start from their own identical setup, warm-up step
  // included, so every lane's step K is the same physical step.
  auto reference = [&](const std::string &Backend) {
    std::unique_ptr<Sim> S = makeSim(P, Backend, Cfg.Threads);
    S->step();
    return S;
  };
  std::unique_ptr<Sim> Serial = reference("serial");
  std::unique_ptr<Sim> Dpcpp = Cfg.Trace ? nullptr : reference("dpcpp");
  auto lane = [](const std::string &Key, Sim &S, int PerTurn) {
    Lane L;
    L.Key = Key;
    L.PerTurn = PerTurn;
    L.Step = [&S](int) {
      const double Before = stageHostNs(S);
      S.step();
      return stageHostNs(S) - Before;
    };
    L.Items = [&S] { return double(S.particles().size()); };
    L.Hash = [&S] { return pic::picStateHash(S.particles(), S.grid()); };
    return L;
  };
  std::map<std::string, std::uint64_t> Hashes;
  if (!Cfg.Trace) {
    // A parallel turn is one sort period, the nsps sample; it starts right
    // after the warm-up step, so each holds exactly one sort and its share
    // of window shifts.
    std::vector<Lane> Lanes = {lane("parallel_step_ns", *A, SortEvery),
                               lane("serial_step_ns", *Serial, 10),
                               lane("dpcpp_step_ns", *Dpcpp, 10)};
    Lanes[1].MaxSteps = RefSteps; // the serial lane is the hash reference
    // Plasma the pulse has swept reaches the trailing edge after 0.65 Nx
    // planes of travel (~166 shifts). Pushed forward, it retires late, so
    // retired == injected only holds before that. The run ends after 10
    // rounds, 500 parallel steps (~144 shifts), however fast the host: no
    // lane ever steps on alone, and no lane passes that point.
    const int MaxRounds = P.Window ? 10 : 0;
    interleave(R, Lanes, Cfg.Seconds, RefSteps / 10, MaxRounds, RefSteps,
               Hashes);
    checkSim(*A, "parallel");
    checkSim(*Serial, "serial");
    checkSim(*Dpcpp, "dpcpp");
  } else {
    const perfmodel::MachineProfile Profile = calibrate(R, T, Cfg.Threads);
    const perfmodel::CpuMachine M = perfmodel::CpuMachine::fromProfile(Profile);
    const int Th = std::min(Cfg.Threads, M.coreCount());
    using perfmodel::Precision;
    for (const auto &W : {perfmodel::pushStageWorkload(Precision::Double),
                          perfmodel::depositStageWorkload(Precision::Double),
                          perfmodel::fieldStageWorkload(Precision::Double)}) {
      const std::string Stage = W.Stage;
      R.Counters["pred." + Stage + "_ns"] =
          perfmodel::predictStageNs(M, W, Th, Precision::Double).NsPerItem;
      R.Counters[Stage + ".bytes_per_item"] = W.BytesPerItem;
      R.Counters[Stage + ".flops_per_item"] = W.FlopsPerItem;
    }
    std::vector<Lane> Lanes = {lane("untraced_step_ns", *A, 10),
                               lane("serial_step_ns", *Serial, 10)};
    interleave(R, Lanes, 0, RefSteps / 10, 0, RefSteps, Hashes);
    checkSim(*Serial, "serial");

    Composer C(*A, Parallel, Cfg.Threads);
    pic::YeeGrid<Real> Grid = A->grid();
    Array Parts(A->particles().capacity());
    const RunStats Before = A->submitOverhead();
    int Mismatches = 0, Traced = 0;
    // Traced and plain steps alternate, so the tracing overhead compares
    // steps of the same phase; 2 x 60 steps cover two sorts and, on
    // pic-window, dozens of shifts.
    for (; Traced < RefSteps + 10; ++Traced) {
      bool Shifted = false;
      if (!tracedStep(*A, C, Grid, Parts, T, R, Shifted) && !Shifted)
        ++Mismatches;
      const std::int64_t T0 = nowNs();
      A->step();
      R.Samples["untraced_alt_step_ns"].push_back(double(nowNs() - T0));
    }
    const RunStats After = A->submitOverhead();
    R.Counters["exec.launches"] = double(After.Launches - Before.Launches);
    R.Counters["exec.submit_ns"] = After.SubmitNs - Before.SubmitNs;
    R.Counters["exec.steps"] = 2 * Traced;
    R.Counters["traced_steps"] = Traced;
    R.operation("traced stages reproduce PicSimulation::step",
                Mismatches == 0, std::to_string(Mismatches) + " mismatches");
    checkSim(*A, "traced");

    // Checkpoint round trips of the full state (v3).
    const std::string Path = Cfg.WorkDir + "/pic-" + std::to_string(getpid()) +
                             ".ckpt";
    const std::uint64_t H0 = pic::picStateHash(A->particles(), A->grid());
    bool Ok = true;
    for (int I = 0; I < 3; ++I) {
      int Id = T.open("core.checkpoint.save");
      Ok &= A->saveState(Path);
      T.close(Id);
      Id = T.open("core.checkpoint.load");
      Ok &= A->restoreState(Path);
      T.close(Id);
    }
    std::error_code Ec;
    R.Counters["checkpoint.bytes"] =
        double(std::filesystem::file_size(Path, Ec));
    std::filesystem::remove(Path, Ec);
    R.operation("checkpoint round trip",
                Ok && pic::picStateHash(A->particles(), A->grid()) == H0);
  }
  checkHashes(R, Hashes);
  finishSetups(R, SetupOnce);
}

} // namespace picwl

//===----------------------------------------------------------------------===//
// serve-mix: a closed burst of small Langmuir jobs through hichi_serve
//===----------------------------------------------------------------------===//

namespace servewl {

constexpr int Jobs = 240;
constexpr int Tenants = 4;
constexpr int Quantum = 16;
constexpr double JobBoundNs = 60e9; ///< per-burst wall bound

using Key = std::tuple<int, int, int, double>;
Key keyOf(const serve::JobSpec &S) {
  return {S.Nx, S.PerCell, S.Steps, S.Amplitude};
}

/// The burst: sizes drawn from syntheticJobMix's choice sets by the
/// seed; tenants round-robin; graph replay on.
std::vector<serve::JobSpec> makeJobs(std::uint64_t Seed) {
  RandomStream<double> Rng(mixSeed(Seed, 4));
  static const int NxChoices[3] = {16, 24, 32};
  static const int PerCellChoices[2] = {2, 4};
  static const int StepChoices[3] = {24, 36, 48};
  const double Amplitude = Rng.uniform(0.01, 0.03);
  std::vector<serve::JobSpec> Out =
      serve::syntheticJobMix(Jobs, Tenants); // names, tenants, defaults
  for (serve::JobSpec &S : Out) {
    S.Nx = NxChoices[Rng.uniformIndex(3)];
    S.PerCell = PerCellChoices[Rng.uniformIndex(2)];
    S.Steps = StepChoices[Rng.uniformIndex(3)];
    S.Amplitude = Amplitude;
    S.UseGraph = true;
  }
  return Out;
}

double particleSteps(const serve::JobSpec &S) {
  return double(S.Nx) * S.Ny * S.Nz * S.PerCell * S.Steps;
}

struct Burst {
  double WallNs = 0;
  std::vector<serve::JobResult> Results;
  long long Quanta = 0, Fused = 0;
};

Burst runBurst(serve::BackendPool &Pool,
               const std::vector<serve::JobSpec> &Specs,
               const std::string &StateDir, const std::string &Prefix,
               Tracer *T) {
  std::error_code Ec;
  std::filesystem::remove_all(StateDir, Ec);
  std::filesystem::create_directories(StateDir, Ec);
  serve::ServeConfig SC;
  SC.Workers = 2;
  SC.BatchMax = 2;
  SC.QuantumSteps = Quantum;
  // Always a state dir: without one a suspended job restarts from step 0
  // every quantum and the burst never ends.
  SC.StateDir = StateDir;
  Burst B;
  const int Parent = T ? T->open("serve.burst") : -1;
  const std::int64_t T0 = nowNs();
  {
    serve::Scheduler Sched(Pool, SC);
    for (serve::JobSpec S : Specs) {
      S.Name = Prefix + S.Name;
      const int Id = T ? T->open("serve.enqueue", Parent) : -1;
      Sched.enqueue(std::move(S));
      if (T)
        T->close(Id);
    }
    const int Id = T ? T->open("serve.run", Parent) : -1;
    Sched.run();
    if (T)
      T->close(Id);
    B.WallNs = double(nowNs() - T0);
    B.Results = Sched.results();
    B.Quanta = Sched.quantaExecuted();
    B.Fused = Sched.fusedRounds();
  }
  if (T)
    T->close(Parent);
  std::filesystem::remove_all(StateDir, Ec);
  return B;
}

void run(const Config &Cfg, Report &R) {
  const std::vector<serve::JobSpec> Specs = makeJobs(Cfg.Seed);
  std::map<std::string, const serve::JobSpec *> ByName;
  for (const serve::JobSpec &S : Specs)
    ByName[S.Name] = &S;
  const std::string StateRoot =
      Cfg.WorkDir + "/serve-state-" + std::to_string(getpid());
  Tracer T(R);

  int BurstNo = 0;
  auto SetupOnce = [&] {
    auto Pool = std::make_unique<serve::BackendPool>(2, 1);
    // A fixed warm-up job (graph capture, one checkpoint rotation), so the
    // set-up work does not depend on the seed.
    serve::JobSpec W;
    W.Name = "job-warm";
    W.Nx = 24;
    W.Steps = 2 * Quantum;
    std::vector<serve::JobSpec> Warm = {W};
    runBurst(*Pool, Warm, StateRoot, "warm" + std::to_string(BurstNo++) + "-",
             nullptr);
    return Pool;
  };
  std::unique_ptr<serve::BackendPool> Pool = timedSetup(R, SetupOnce);
  double BurstParticleSteps = 0;
  for (const serve::JobSpec &S : Specs)
    BurstParticleSteps += particleSteps(S);
  R.Counters["burst_particle_steps"] = BurstParticleSteps;
  R.Counters["jobs"] = Jobs;
  R.Counters["threads"] = Pool->laneCount();

  // One standalone reference per distinct spec, on serial (the hashes
  // every served job must reproduce) and on dpcpp; each pass over the set
  // is one sample of its backend's ns per particle-step.
  std::map<Key, const serve::JobSpec *> Distinct;
  for (const serve::JobSpec &S : Specs)
    Distinct.emplace(keyOf(S), &S);
  std::map<Key, std::uint64_t> RefHash;
  auto referenceSet = [&](const std::string &Backend) {
    Section Sec(R, Backend + "_job_ns");
    double Ns = 0, Work = 0;
    for (const auto &[K, S] : Distinct) {
      std::unique_ptr<serve::Simulation> Sim =
          serve::makeSimulation(*S, Backend);
      const double Before = stageHostNs(*Sim);
      const std::int64_t T0 = nowNs();
      Sim->run(S->Steps);
      const double D = double(nowNs() - T0);
      Ns += D;
      Sec.add(D, stageHostNs(*Sim) - Before);
      Work += particleSteps(*S);
      const std::uint64_t H = serve::stateHash(*Sim);
      auto It = RefHash.find(K);
      if (It == RefHash.end())
        RefHash[K] = H;
      else
        R.operation("hash " + Backend + " reference of " + S->Name,
                    H == It->second, hex(H) + " vs " + hex(It->second));
    }
    Sec.close();
    R.Samples[Backend + "_job_ns_per_particle_step"].push_back(Ns / Work);
  };
  referenceSet("serial");

  auto checkBurst = [&](const Burst &B, const std::string &Prefix) {
    R.operation("burst within wall bound", B.WallNs < JobBoundNs,
                num(B.WallNs * 1e-9) + " s");
    std::set<std::string> Seen;
    for (const serve::JobResult &J : B.Results) {
      const std::string Name = J.Name.substr(Prefix.size());
      auto It = ByName.find(Name);
      bool Ok = It != ByName.end() &&
                J.State == serve::JobState::Completed &&
                J.Hash == RefHash[keyOf(*It->second)] &&
                J.LatencyNs <= B.WallNs;
      R.operation("job " + J.Name, Ok,
                  std::string(serve::jobStateName(J.State)) + " " +
                      hex(J.Hash));
      Seen.insert(Name);
      if (It != ByName.end()) {
        R.Samples["job_latency_ns"].push_back(J.LatencyNs);
        R.Samples["job_particle_steps"].push_back(particleSteps(*It->second));
      }
    }
    R.operation("every job reached a terminal state",
                Seen.size() == Specs.size(),
                std::to_string(Seen.size()) + " of " +
                    std::to_string(Specs.size()));
  };

  if (!Cfg.Trace) {
    // Rounds of one burst and one dpcpp pass over the references, so both
    // series are sampled across the whole run.
    const std::int64_t Start = nowNs();
    for (int Round = 0;
         Round < 2 || double(nowNs() - Start) < Cfg.Seconds * 1e9; ++Round) {
      const std::string Prefix = "b" + std::to_string(BurstNo++) + "-";
      Burst B = runBurst(*Pool, Specs, StateRoot, Prefix, nullptr);
      R.Samples["burst_ns"].push_back(B.WallNs);
      checkBurst(B, Prefix);
      referenceSet("dpcpp");
    }
  } else {
    const std::string P0 = "u" + std::to_string(BurstNo++) + "-";
    const Burst U = runBurst(*Pool, Specs, StateRoot, P0, nullptr);
    R.Samples["untraced_burst_ns"].push_back(U.WallNs);
    checkBurst(U, P0);
    R.Samples["job_latency_ns"].clear();
    R.Samples["job_particle_steps"].clear();
    const std::string P1 = "t" + std::to_string(BurstNo++) + "-";
    const Burst B = runBurst(*Pool, Specs, StateRoot, P1, &T);
    R.Samples["burst_ns"].push_back(B.WallNs);
    checkBurst(B, P1);
    R.Counters["serve.quanta"] = double(B.Quanta);
    R.Counters["serve.fused_rounds"] = double(B.Fused);

    // Launch ledger and checkpoint cost of one served job, standalone:
    // the largest spec, graph replay on, on the parallel backend.
    const serve::JobSpec *Big = &Specs.front();
    for (const serve::JobSpec &S : Specs)
      if (particleSteps(S) > particleSteps(*Big))
        Big = &S;
    std::unique_ptr<serve::Simulation> Sim =
        serve::makeSimulation(*Big, "openmp", Pool->laneCount());
    Sim->step(); // capture
    const RunStats Before = Sim->submitOverhead();
    const int Steps = Big->Steps - 1;
    Sim->run(Steps);
    const RunStats After = Sim->submitOverhead();
    R.Counters["exec.launches"] = double(After.Launches - Before.Launches);
    R.Counters["exec.submit_ns"] = After.SubmitNs - Before.SubmitNs;
    R.Counters["exec.steps"] = Steps;
    const std::string Path = StateRoot + ".ckpt";
    bool Ok = true;
    for (int I = 0; I < 3; ++I) {
      int Id = T.open("core.checkpoint.save");
      Ok &= Sim->saveState(Path);
      T.close(Id);
      Id = T.open("core.checkpoint.load");
      Ok &= Sim->restoreState(Path);
      T.close(Id);
    }
    std::error_code Ec;
    R.Counters["checkpoint.bytes"] =
        double(std::filesystem::file_size(Path, Ec));
    std::filesystem::remove(Path, Ec);
    R.operation("checkpoint round trip", Ok);
  }
  finishSetups(R, SetupOnce);
}

} // namespace servewl

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Cfg.Workload = Value;
    else if (Flag == "--seed")
      Cfg.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      Cfg.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      Cfg.Trace = Value == "1";
    else if (Flag == "--workdir")
      Cfg.WorkDir = Value;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }
  Cfg.Threads = affinityThreads();
  Report R;
  if (Cfg.Workload == "pusher-dipole")
    pusher::run(Cfg, R);
  else if (Cfg.Workload == "pic-dense" || Cfg.Workload == "pic-window")
    picwl::run(Cfg, R);
  else if (Cfg.Workload == "serve-mix")
    servewl::run(Cfg, R);
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Cfg.Workload.c_str());
    return 2;
  }
  std::printf("%s\n", toJson(R, Cfg.Workload, Cfg.Seed, Cfg.Trace).c_str());
  return 0;
}
