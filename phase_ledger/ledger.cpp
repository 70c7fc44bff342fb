// Phase-ledger benchmark driver.
//
//   ledger --workload NAME --seed N --seconds S --trace 0|1 [--scale X]
//
// --trace 0 repeats the end-to-end run through the public SchurSolver facade
// (setup → factor → solve_multi) for S seconds and reports the end-to-end
// metrics. --trace 1 runs the traced pass instead: every iteration runs the
// facade once (for the untraced set-up time and the solve counters), then
// replays the facade's pipeline layer by layer — the same public calls in the
// order SchurSolver::setup/factor make them — timing each call from here and
// cross-checking the replay's partition, S̃ and LU(S̃) against the facade.
// --scale multiplies the workload's matrix scale (the smoke test shrinks it).
//
// Every right-hand side solved is one operation. It fails when the facade
// reports it did not converge, x is not finite, the true residual
// ‖b − Ax‖/‖b‖ (computed here) exceeds 1e-10, its repeat threw, its X differs
// bitwise from the first repeat's, from the same repeat's first batch, or
// (threaded workload, traced mode) from the single-thread run's, or a
// traced-pass cross-check of its pass failed. The last stdout line is the
// JSON result; the exit code is nonzero when any operation failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dbbd.hpp"
#include "core/preconditioner.hpp"
#include "core/schur_assembly.hpp"
#include "core/schur_solver.hpp"
#include "core/subdomain.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "gen/suite.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/engine.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pdslin;

namespace {

struct Workload {
  const char* name;
  const char* matrix;
  double scale;
  index_t k;
  unsigned threads;
  index_t nrhs;
};

// Scales are chosen so one facade repeat takes seconds, not tens of seconds,
// while keeping each workload's bottleneck (see README.md).
constexpr Workload kWorkloads[] = {
    {"cavity-k8", "tdr190k", 0.7, 8, 1, 1},
    {"circuit-k32-np4", "G3_circuit", 2.0, 32, 4, 1},
    {"fusion-k8-rhs64", "matrix211", 0.5, 8, 1, 64},
};

constexpr double kResidualLimit = 1e-10;
constexpr std::uint64_t kSolverSeed = 20130520;  // partitioner RNG, fixed

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ledger: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("missing value for " + k);
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--scale") {
      a.scale = std::atof(v);
    } else {
      die("unknown option " + k);
    }
  }
  if (a.seconds <= 0.0 || a.scale <= 0.0) die("--seconds and --scale must be > 0");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  die("unknown workload '" + name + "'");
}

// The bench solver settings: RHB/soed, ε = 0.05, drop_wg 1e-6, drop_s 1e-5,
// postorder RHS ordering, GMRES at its default tolerance.
SolverOptions solver_options(const Workload& w, unsigned threads) {
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.metric = CutMetric::Soed;
  opt.num_subdomains = w.k;
  opt.partition_epsilon = 0.05;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-5;
  opt.assembly.rhs_ordering = RhsOrdering::Postorder;
  opt.threads = threads;
  opt.seed = kSolverSeed;
  return opt;
}

// ---------------------------------------------------------------- helpers

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols && same_bits(a.row_ptr, b.row_ptr) &&
         same_bits(a.col_idx, b.col_idx) && same_bits(a.values, b.values);
}

// ‖b − A x‖ / ‖b‖ with the benchmark's own product, independent of the
// residual the solver reports.
double true_residual(const CsrMatrix& a, const value_t* b, const value_t* x) {
  double r2 = 0.0, b2 = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    double ax = 0.0;
    for (index_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
      ax += a.values[q] * x[a.col_idx[q]];
    }
    r2 += (b[i] - ax) * (b[i] - ax);
    b2 += b[i] * b[i];
  }
  return b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
}

// Computed (not measured) flops of a right-looking LU with the factors'
// structure: Σ_j (|L_j| − 1)(1 + 2(|U_j·| − 1)), L_j = column j of L with its
// unit diagonal, U_j· = row j of U with its diagonal.
double lu_flops(const LuFactors& f) {
  std::vector<long long> urow(static_cast<std::size_t>(f.n), 0);
  for (index_t r : f.upper.row_idx) ++urow[r];
  double flops = 0.0;
  for (index_t j = 0; j < f.n; ++j) {
    const double l_off = static_cast<double>(f.lower.col_nnz(j) - 1);
    flops += l_off * (1.0 + 2.0 * static_cast<double>(urow[j] - 1));
  }
  return flops;
}

// ------------------------------------------------------------ the workload

struct Inputs {
  GeneratedProblem p;
  std::vector<value_t> b;  // column-major, nrhs columns
};

Inputs make_inputs(const Workload& w, const Args& args) {
  Inputs in{make_suite_matrix(w.matrix, w.scale * args.scale, args.seed), {}};
  if (in.p.incidence.rows == 0) die("workload matrix carries no incidence factor");
  const std::size_t n = static_cast<std::size_t>(in.p.a.rows);
  in.b.resize(n * static_cast<std::size_t>(w.nrhs));
  Rng rng(args.seed ^ 0x5DEECE66DULL);
  for (value_t& v : in.b) v = rng.uniform(-1.0, 1.0);
  return in;
}

/// Tally of operations and of the checks that ran.
struct Ledger {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, long long> checks_run;
  std::map<std::string, long long> checks_failed;
  void check(const std::string& name, bool ok) {
    ++checks_run[name];
    if (!ok) {
      ++checks_failed[name];
      std::fprintf(stderr, "ledger: check %s FAILED\n", name.c_str());
    }
  }
};

/// One end-to-end run through the facade: set up once, then solve the batch
/// repeatedly until kMinSolveSeconds have passed, so a batch of a few
/// milliseconds is timed as the median of many calls.
struct FacadeRun {
  std::unique_ptr<SchurSolver> solver;
  std::vector<value_t> x;            // X of the first batch
  std::vector<GmresResult> results;  // of the first batch
  double setup_s = 0.0;              // setup() + factor()
  double setup_cpu_s = 0.0;          // process CPU over the same interval
  std::vector<double> solve_s;       // wall of each solve_multi() call
  long long resolve_mismatches = 0;  // later batches whose X differs
  bool threw = false;
};

constexpr double kMinSolveSeconds = 0.5;
constexpr std::size_t kMaxSolves = 200;

FacadeRun run_facade(const Workload& w, const Inputs& in, unsigned threads) {
  FacadeRun r;
  try {
    r.solver = std::make_unique<SchurSolver>(in.p.a, solver_options(w, threads));
    const double cpu0 = cpu_seconds();
    WallTimer t;
    r.solver->setup(&in.p.incidence, in.p.coords);
    r.solver->factor();
    r.setup_s = t.seconds();
    r.setup_cpu_s = cpu_seconds() - cpu0;
    std::vector<value_t> again;
    WallTimer budget;
    do {
      std::vector<value_t>& x = r.solve_s.empty() ? r.x : again;
      x.assign(in.b.size(), 0.0);
      t.reset();
      std::vector<GmresResult> res = r.solver->solve_multi(in.b, x, w.nrhs);
      r.solve_s.push_back(t.seconds());
      if (r.solve_s.size() == 1) {
        r.results = std::move(res);
      } else if (!same_bits(r.x, again)) {
        ++r.resolve_mismatches;
      }
    } while (r.solve_s.size() < kMaxSolves && budget.seconds() < kMinSolveSeconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: facade run threw: %s\n", e.what());
    r.threw = true;
  }
  return r;
}

/// Operations of a facade run: nrhs per solve call.
long long operations(const Workload& w, const FacadeRun& r) {
  return w.nrhs * static_cast<long long>(std::max<std::size_t>(1, r.solve_s.size()));
}

/// Check a facade run and return its failed operations: the true residual of
/// every column of the first batch (a failed column fails in every bitwise
/// equal re-solve too), every later batch bitwise equal to the first, and —
/// when `x_ref` is given — the batch bitwise equal to it (check `ref_check`).
long long failed_operations(const Workload& w, const Inputs& in, const FacadeRun& r,
                            const std::vector<value_t>* x_ref, const char* ref_check,
                            Ledger& led) {
  const long long ops = operations(w, r);
  if (r.threw) return ops;
  const auto n = static_cast<std::size_t>(in.p.a.rows);
  long long failed_columns = 0;
  for (index_t j = 0; j < w.nrhs; ++j) {
    const value_t* x = r.x.data() + j * n;
    const bool finite = std::all_of(x, x + n, [](value_t v) { return std::isfinite(v); });
    const double res = true_residual(in.p.a, in.b.data() + j * n, x);
    const bool ok = r.results[j].converged && finite && res <= kResidualLimit;
    led.check("residual", ok);
    if (!ok) {
      std::fprintf(stderr, "ledger: rhs %d converged=%d iterations=%d residual=%.3g\n", j,
                   r.results[j].converged ? 1 : 0, r.results[j].iterations, res);
      ++failed_columns;
    }
  }
  long long failed = failed_columns * static_cast<long long>(r.solve_s.size());
  if (r.solve_s.size() > 1) {
    led.check("determinism.resolve", r.resolve_mismatches == 0);
    failed += w.nrhs * r.resolve_mismatches;
  }
  if (x_ref != nullptr) {
    const bool same = same_bits(*x_ref, r.x);
    led.check(ref_check, same);
    if (!same) failed = ops;
  }
  return std::min(failed, ops);
}

// ------------------------------------------------------- end-to-end mode

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void emit(const Ledger& led, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("CHECKS {");
  bool first = true;
  for (const auto& [name, n] : led.checks_run) {
    const auto it = led.checks_failed.find(name);
    std::printf("%s\"%s\": {\"run\": %lld, \"failed\": %lld}", first ? "" : ", ",
                name.c_str(), n, it == led.checks_failed.end() ? 0LL : it->second);
    first = false;
  }
  std::printf("}\n");
  const bool correct = led.failed == 0 && led.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", led.attempted, led.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Repeat the facade run until `seconds` have passed (at least twice, so the
/// repeat-to-repeat determinism check always runs).
std::vector<Metric> end_to_end(const Workload& w, const Inputs& in,
                               const Args& args, Ledger& led) {
  std::vector<double> setup, solve_ms, tts;
  double iters_per_rhs = 0.0, setup_mb = 0.0;
  std::vector<value_t> x_ref;
  WallTimer wall;
  for (int rep = 0; rep < 2 || wall.seconds() < args.seconds; ++rep) {
    const FacadeRun r = run_facade(w, in, w.threads);
    led.attempted += operations(w, r);
    led.failed += failed_operations(w, in, r, x_ref.empty() ? nullptr : &x_ref,
                                    "determinism.repeat", led);
    if (r.threw) continue;
    if (x_ref.empty()) x_ref = r.x;
    setup.push_back(r.setup_s);
    solve_ms.push_back(1e3 * median(r.solve_s) / w.nrhs);
    tts.push_back(r.setup_s + r.solve_s.front());
    long long iters = 0;
    for (const GmresResult& g : r.results) iters += g.iterations;
    iters_per_rhs = static_cast<double>(iters) / w.nrhs;
    setup_mb = static_cast<double>(r.solver->memory_bytes()) / 1e6;
    const SolverStats& st = r.solver->stats();
    std::fprintf(stderr,
                 "ledger: repeat %d setup %.3f s (partition %.3f subdomains %.3f "
                 "gather %.3f lu_schur %.3f) solve %.4f s (x%zu)\n",
                 rep, r.setup_s, st.partition_seconds, st.subdomain_wall_seconds,
                 st.gather_seconds, st.lu_s_seconds, median(r.solve_s), r.solve_s.size());
  }
  std::printf("repeats %zu (timings are medians over repeats; max setup %.4g s, "
              "max time to solution %.4g s)\n",
              setup.size(), setup.empty() ? 0.0 : *std::max_element(setup.begin(), setup.end()),
              tts.empty() ? 0.0 : *std::max_element(tts.begin(), tts.end()));
  return {
      {"setup_s", median(setup), "s"},
      {"solve_ms_per_rhs", median(solve_ms), "ms"},
      {"time_to_solution_s", median(tts), "s"},
      {"krylov_iters_per_rhs", iters_per_rhs, "count"},
      {"setup_mb", setup_mb, "MB"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ----------------------------------------------------------- traced pass

/// Per-layer numbers of one traced pass (names as printed).
using Sample = std::map<std::string, double>;

/// Replay SchurSolver::setup/factor layer by layer against the facade run
/// `ref` (same inputs and options) and time every call from here.
Sample traced_pass(const Workload& w, const Inputs& in, const FacadeRun& ref,
                   Ledger& led, bool& checks_ok) {
  const SolverOptions opt = solver_options(w, w.threads);
  const CsrMatrix& a = in.p.a;
  const index_t k = w.k;
  Sample s;
  checks_ok = true;
  auto check = [&](const char* name, bool ok) {
    led.check(name, ok);
    checks_ok = checks_ok && ok;
  };

  // --- partition: the engine, then the DBBD permutation. ---
  partition::EngineOptions eng;
  eng.engine = opt.partition_engine;
  eng.budget.max_ms = opt.partition_budget_ms;
  eng.budget.min_quality = opt.partition_min_quality;
  eng.threads = opt.threads;
  if (in.p.coords.size() == static_cast<std::size_t>(a.rows) * 3) {
    eng.coords = in.p.coords;
  }
  RhbOptions ropt;
  ropt.num_parts = k;
  ropt.metric = opt.metric;
  ropt.constraints = opt.constraints;
  ropt.dynamic_weights = opt.rhb_dynamic_weights;
  ropt.epsilon = opt.partition_epsilon;
  ropt.seed = opt.seed;
  ropt.threads = opt.threads;
  double cpu0 = cpu_seconds();
  WallTimer t;
  partition::EngineResult pr = partition::rhb_engine(in.p.incidence, ropt, eng);
  s["partition.engine_s"] = t.seconds();
  s["partition.cpu_per_wall"] = (cpu_seconds() - cpu0) / s["partition.engine_s"];
  check("cross.partition", pr.unknowns.part == ref.solver->partition().part);
  t.reset();
  const DbbdPartition dbbd = build_dbbd(pr.unknowns.part, k, {});
  s["partition.dbbd_s"] = t.seconds();
  s["partition.separator_n"] = dbbd.separator_size();
  s["partition.balance_ratio"] = pr.stats.balance_ratio;

  // --- subdomains: extract + assemble (LU(D) and Comp(S)) per ℓ, fanned
  // out exactly like SchurSolver::factor. ---
  std::vector<Subdomain> subs(k);
  std::vector<SubdomainFactorization> facts(k);
  std::vector<double> extract_s(k), assemble_s(k);
  auto process_domain = [&](int l) {
    WallTimer tl;
    subs[l] = extract_subdomain(a, dbbd, l);
    extract_s[l] = tl.seconds();
    tl.reset();
    facts[l] = assemble_subdomain(subs[l], opt.assembly);
    assemble_s[l] = tl.seconds();
  };
  t.reset();
  if (opt.threads > 1) {
    parallel_for(ThreadPool::shared(), k, process_domain, opt.threads);
  } else {
    for (index_t l = 0; l < k; ++l) process_domain(l);
  }
  s["subdomain.wall_s"] = t.seconds();
  double sum_extract = 0.0, sum_assemble = 0.0, max_assemble = 0.0;
  for (index_t l = 0; l < k; ++l) {
    sum_extract += extract_s[l];
    sum_assemble += assemble_s[l];
    max_assemble = std::max(max_assemble, assemble_s[l]);
  }
  s["subdomain.extract_s"] = sum_extract;
  s["subdomain.assemble_s"] = sum_assemble;
  s["subdomain.assemble_max_s"] = max_assemble;

  // --- LU(D): the benchmark's own ordering + factorization of each D_ℓ
  // (duplicates of the calls inside assemble_subdomain, for their split). ---
  double order_s = 0.0, factor_s = 0.0, flops = 0.0;
  long long fill = 0, panel_ok = 0, t_nnz = 0, padded = 0, pattern = 0;
  for (index_t l = 0; l < k; ++l) {
    const CsrMatrix& d = subs[l].d;
    t.reset();
    std::vector<index_t> colmap = minimum_degree_ordering(symmetrize_abs(pattern_of(d)));
    const std::vector<index_t> post =
        etree_postorder_permutation(permute_symmetric(d, colmap));
    std::vector<index_t> composed(colmap.size());
    for (std::size_t i = 0; i < colmap.size(); ++i) composed[i] = colmap[post[i]];
    const CsrMatrix d_ord = permute_symmetric(d, composed);
    order_s += t.seconds();
    LuOptions lopt = opt.assembly.lu;
    if (lopt.threads <= 1) lopt.threads = std::max(1u, opt.assembly.inner_threads);
    t.reset();
    const LuFactors lu = lu_factorize(d_ord, lopt);
    factor_s += t.seconds();
    check("cross.lu_d", composed == facts[l].colmap && lu.fill_nnz() == facts[l].lu_nnz);
    fill += lu.fill_nnz();
    flops += lu_flops(lu);
    panel_ok += facts[l].lu.stats.used_panel ? 1 : 0;
    t_nnz += facts[l].t_tilde.nnz();
    for (const MultiRhsStats* ms : {&facts[l].g_stats, &facts[l].w_stats}) {
      padded += ms->padded_zeros;
      pattern += ms->pattern_nnz;
    }
  }
  s["lu_d.order_s"] = order_s;
  s["lu_d.factor_s"] = factor_s;
  s["lu_d.fill_nnz"] = static_cast<double>(fill);
  s["lu_d.gflop"] = flops * 1e-9;
  s["lu_d.gflops"] = flops * 1e-9 / factor_s;
  s["lu_d.panel_ok_frac"] = static_cast<double>(panel_ok) / k;
  s["comp_s.self_s"] = sum_assemble - order_s - factor_s;
  s["comp_s.padded_frac"] =
      padded + pattern == 0 ? 0.0 : static_cast<double>(padded) / (padded + pattern);
  s["comp_s.t_nnz"] = static_cast<double>(t_nnz);

  // --- gather: separator block C, then Ŝ = C − Σ T̃ and the S̃ drop. ---
  t.reset();
  const CsrMatrix c_block = extract_separator_block(a, dbbd);
  const unsigned gather_threads =
      std::max(1u, opt.threads) * std::max(1u, opt.assembly.inner_threads);
  const CsrMatrix s_tilde =
      assemble_schur(c_block, subs, facts, opt.assembly.drop_s, gather_threads);
  s["gather.s"] = t.seconds();
  const double ns = s_tilde.rows;
  s["gather.s_tilde_density"] = ns > 0 ? s_tilde.nnz() / (ns * ns) : 0.0;
  check("cross.s_tilde", same_bits(s_tilde, ref.solver->schur_tilde()));

  // --- LU(S̃): the preconditioner as the facade builds it, then the
  // benchmark's own ordering + factorization for the split and the flops. ---
  t.reset();
  const SchurPreconditioner precond(s_tilde, opt.assembly.lu, opt.assembly.trisolve);
  s["lu_schur.s"] = t.seconds();
  t.reset();
  const std::vector<index_t> smap = minimum_degree_ordering(symmetrize_abs(pattern_of(s_tilde)));
  const CsrMatrix s_ord = permute_symmetric(s_tilde, smap);
  s["lu_schur.order_s"] = t.seconds();
  t.reset();
  const LuFactors slu = lu_factorize(s_ord, opt.assembly.lu);
  s["lu_schur.factor_s"] = t.seconds();
  check("cross.lu_schur_fill", slu.fill_nnz() == ref.solver->stats().precond_nnz &&
                                   precond.factor_nnz() == slu.fill_nnz());
  s["lu_schur.fill_density"] = ns > 0 ? slu.fill_nnz() / (ns * ns) : 0.0;
  s["lu_schur.gflop"] = lu_flops(slu) * 1e-9;
  s["lu_schur.gflops"] = s["lu_schur.gflop"] / s["lu_schur.factor_s"];
  s["lu_schur.panel_ok"] = slu.stats.used_panel ? 1.0 : 0.0;

  // --- solve kernels, each timed as the median of many calls. ---
  const SchurSolver& solver = *ref.solver;
  const auto median_ms = [](auto&& body) {
    std::vector<double> v;
    WallTimer budget;
    while (v.size() < 5 || (v.size() < 200 && budget.seconds() < 0.25)) {
      WallTimer tk;
      body();
      v.push_back(1e3 * tk.seconds());
    }
    return median(v);
  };
  std::vector<std::vector<value_t>> rhs(k), z(k);
  for (index_t l = 0; l < k; ++l) {
    const index_t nd = solver.subdomains()[l].d.rows;
    rhs[l].assign(nd, 1.0);
    z[l].assign(nd, 0.0);
  }
  s["solve.domain_sweep_ms"] = median_ms([&] {
    for (index_t l = 0; l < k; ++l) solver.domain_solve(l, rhs[l], z[l]);
  });
  std::vector<value_t> px(s_tilde.rows, 1.0), py(s_tilde.rows, 0.0);
  s["solve.precond_apply_ms"] = median_ms([&] { precond.apply(px, py); });

  const SolverStats& st = solver.stats();
  s["solve.applies_per_rhs"] = static_cast<double>(st.solve_applies) / w.nrhs;
  s["solve.apply_ms"] = st.solve_applies > 0 ? 1e3 * median(ref.solve_s) / st.solve_applies : 0.0;
  s["parallel.setup_cpu_per_wall"] = ref.setup_cpu_s / ref.setup_s;
  // Layer calls that make up setup (the duplicate LU(D)/LU(S̃) calls above
  // are excluded), over the untraced facade set-up of this pass.
  s["trace.coverage"] = (s["partition.engine_s"] + s["partition.dbbd_s"] +
                         s["subdomain.wall_s"] + s["gather.s"] + s["lu_schur.s"]) /
                        ref.setup_s;
  return s;
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"partition.engine_s", "s"},        {"partition.dbbd_s", "s"},
    {"partition.cpu_per_wall", "ratio"}, {"partition.separator_n", "count"},
    {"partition.balance_ratio", "ratio"}, {"subdomain.extract_s", "s"},
    {"subdomain.assemble_s", "s"},      {"subdomain.assemble_max_s", "s"},
    {"subdomain.wall_s", "s"},          {"lu_d.order_s", "s"},
    {"lu_d.factor_s", "s"},             {"lu_d.fill_nnz", "count"},
    {"lu_d.gflop", "Gflop"},            {"lu_d.gflops", "Gflop/s"},
    {"lu_d.panel_ok_frac", "ratio"},    {"comp_s.self_s", "s"},
    {"comp_s.padded_frac", "ratio"},    {"comp_s.t_nnz", "count"},
    {"gather.s", "s"},                  {"gather.s_tilde_density", "ratio"},
    {"lu_schur.s", "s"},                {"lu_schur.order_s", "s"},
    {"lu_schur.factor_s", "s"},         {"lu_schur.fill_density", "ratio"},
    {"lu_schur.gflop", "Gflop"},        {"lu_schur.gflops", "Gflop/s"},
    {"lu_schur.panel_ok", "count"},     {"solve.applies_per_rhs", "count"},
    {"solve.apply_ms", "ms"},           {"solve.domain_sweep_ms", "ms"},
    {"solve.precond_apply_ms", "ms"},   {"parallel.setup_cpu_per_wall", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Traced passes until `seconds` have passed (at least one), then — for a
/// threaded workload — the thread-count determinism check against a
/// single-thread facade run.
std::vector<Metric> traced(const Workload& w, const Inputs& in, const Args& args,
                           Ledger& led) {
  std::vector<Sample> samples;
  std::vector<value_t> x_ref;
  WallTimer wall;
  for (int pass = 0; pass < 1 || wall.seconds() < args.seconds; ++pass) {
    const FacadeRun r = run_facade(w, in, w.threads);
    const long long ops = operations(w, r);
    led.attempted += ops;
    long long failed = failed_operations(w, in, r, x_ref.empty() ? nullptr : &x_ref,
                                         "determinism.repeat", led);
    if (!r.threw) {
      if (x_ref.empty()) x_ref = r.x;
      bool checks_ok = true;
      try {
        samples.push_back(traced_pass(w, in, r, led, checks_ok));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger: traced pass threw: %s\n", e.what());
        checks_ok = false;
      }
      if (!checks_ok) failed = ops;
    }
    led.failed += failed;
    std::fprintf(stderr, "ledger: traced pass %d done at %.1f s\n", pass, wall.seconds());
  }
  if (w.threads > 1 && !x_ref.empty()) {
    const FacadeRun serial = run_facade(w, in, 1);
    led.attempted += operations(w, serial);
    led.failed += failed_operations(w, in, serial, &x_ref, "determinism.threads", led);
  }
  std::printf("traced passes %zu (per-layer values are medians over passes)\n",
              samples.size());
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.at(m.name));
    out.push_back({m.name, median(v), m.unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = find_workload(args.workload);
  WallTimer gen;
  const Inputs in = make_inputs(w, args);
  std::printf("workload %s: %s scale %.3g n=%d nnz=%d k=%d threads=%u nrhs=%d "
              "seed=%llu (inputs generated in %.3f s, untimed)\n",
              w.name, w.matrix, w.scale * args.scale, in.p.a.rows, in.p.a.nnz(), w.k,
              w.threads, w.nrhs, static_cast<unsigned long long>(args.seed),
              gen.seconds());
  Ledger led;
  const std::vector<Metric> metrics =
      args.trace ? traced(w, in, args, led) : end_to_end(w, in, args, led);
  emit(led, metrics);
  return led.failed == 0 ? 0 : 1;
}
