#include "core/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/binomial.hpp"
#include "util/parallel.hpp"

namespace cmesolve::core {

namespace {

/// Exact rational scalar for the conservation-law elimination. Copy
/// numbers, deltas and law coefficients are tiny integers, so plain
/// int64 numerator/denominator with gcd reduction never overflows here.
struct Rat {
  std::int64_t n = 0;
  std::int64_t d = 1;

  void reduce() {
    if (d < 0) {
      n = -n;
      d = -d;
    }
    const std::int64_t g = std::gcd(n < 0 ? -n : n, d);
    if (g > 1) {
      n /= g;
      d /= g;
    }
    if (n == 0) d = 1;
  }
  [[nodiscard]] bool zero() const { return n == 0; }
  [[nodiscard]] bool integer() const { return d == 1; }
};

Rat rat(std::int64_t v) { return Rat{v, 1}; }

Rat operator*(Rat a, Rat b) {
  Rat r{a.n * b.n, a.d * b.d};
  r.reduce();
  return r;
}

Rat operator-(Rat a, Rat b) {
  Rat r{a.n * b.d - b.n * a.d, a.d * b.d};
  r.reduce();
  return r;
}

Rat operator/(Rat a, Rat b) {
  Rat r{a.n * b.d, a.d * b.n};
  r.reduce();
  return r;
}

/// Reduced row echelon form, choosing pivots by the given column priority.
/// Returns the pivot column of each surviving row (rows stay in place; a
/// row with no pivot is all-zero).
std::vector<int> rref(std::vector<std::vector<Rat>>& m,
                      const std::vector<int>& col_order) {
  const std::size_t rows = m.size();
  std::vector<int> pivot(rows, -1);
  std::size_t r = 0;
  for (int col : col_order) {
    if (r >= rows) break;
    const auto c = static_cast<std::size_t>(col);
    std::size_t sel = rows;
    for (std::size_t i = r; i < rows; ++i) {
      if (!m[i][c].zero()) {
        sel = i;
        break;
      }
    }
    if (sel == rows) continue;
    std::swap(m[r], m[sel]);
    const Rat p = m[r][c];
    for (Rat& v : m[r]) v = v / p;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == r || m[i][c].zero()) continue;
      const Rat f = m[i][c];
      for (std::size_t j = 0; j < m[i].size(); ++j) {
        m[i][j] = m[i][j] - f * m[r][j];
      }
    }
    pivot[r] = col;
    ++r;
  }
  pivot.resize(r);
  return pivot;
}

/// Net stoichiometric change per species (change lists may repeat species).
std::vector<std::int64_t> net_deltas(const Reaction& r, int num_species) {
  std::vector<std::int64_t> net(static_cast<std::size_t>(num_species), 0);
  for (const auto& ch : r.changes) {
    net[static_cast<std::size_t>(ch.species)] += ch.delta;
  }
  return net;
}

/// Intersect [lo, hi] windows per species and keep only the binding ones.
class WindowSet {
 public:
  void intersect(int species, std::int64_t lo, std::int64_t hi) {
    for (auto& w : windows_) {
      if (w.species == species) {
        w.lo = std::max<std::int64_t>(w.lo, lo);
        w.hi = std::min<std::int64_t>(w.hi, hi);
        return;
      }
    }
    windows_.push_back({species, lo, hi});
  }

  /// Emit checks, dropping windows equal to the full [0, cap] range.
  [[nodiscard]] std::vector<StencilCheck> compile(
      const ReactionNetwork& net) const {
    std::vector<StencilCheck> out;
    for (const auto& w : windows_) {
      const std::int64_t lo = std::max<std::int64_t>(w.lo, 0);
      const std::int64_t hi =
          std::min<std::int64_t>(w.hi, net.capacity(w.species));
      if (lo == 0 && hi == net.capacity(w.species)) continue;
      out.push_back({w.species, static_cast<std::int32_t>(lo),
                     static_cast<std::int32_t>(hi)});
    }
    return out;
  }

 private:
  struct Window {
    int species;
    std::int64_t lo;
    std::int64_t hi;
  };
  std::vector<Window> windows_;
};

constexpr index_t kDiagChunk = 4096;

}  // namespace

StencilTable::StencilTable(const ReactionNetwork& network, const State& anchor)
    : network_(&network),
      anchor_(anchor),
      num_species_(network.num_species()) {
  CMESOLVE_TRACE_SPAN("core.stencil.build");
  if (anchor_.size() != static_cast<std::size_t>(num_species_) ||
      !network.valid_state(anchor_)) {
    throw std::invalid_argument(
        "StencilTable: anchor state outside the capacity box");
  }
  detect_laws();
  build_geometry();
  compile_reactions();
  build_diagonal();
  obs::count("stencil.tables_built");
  obs::gauge("stencil.box_rows", static_cast<double>(box_rows_));
  obs::gauge("stencil.rows_masked", static_cast<double>(rows_masked_));
  obs::gauge("stencil.bytes_modeled", static_cast<double>(bytes_modeled()));
}

StencilTable::StencilTable(const StencilTable& base,
                           std::span<const real_t> rates)
    : network_(base.network_),
      anchor_(base.anchor_),
      num_species_(base.num_species_),
      laws_(base.laws_),
      free_species_(base.free_species_),
      radix_(base.radix_),
      weight_(base.weight_),
      box_rows_(base.box_rows_),
      reactions_(base.reactions_),
      rate_dropped_(base.rate_dropped_) {
  CMESOLVE_TRACE_SPAN("core.stencil.rebind");
  if (rates.size() != static_cast<std::size_t>(network_->num_reactions())) {
    throw std::invalid_argument(
        "StencilTable rebind: rates must cover every network reaction");
  }
  if (rate_dropped_ > 0) {
    throw std::invalid_argument(
        "StencilTable rebind: base table dropped a reaction for a "
        "non-positive rate; rebuild from a network with all rates > 0");
  }
  for (auto& r : reactions_) {
    const real_t v = rates[static_cast<std::size_t>(r.reaction)];
    if (!std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument(
          "StencilTable rebind: every compiled reaction needs a finite "
          "positive rate");
    }
    r.rate = v;
  }
  build_diagonal();
  obs::count("stencil.tables_rebound");
  obs::gauge("stencil.box_rows", static_cast<double>(box_rows_));
  obs::gauge("stencil.rows_masked", static_cast<double>(rows_masked_));
}

void StencilTable::detect_laws() {
  const auto ns = static_cast<std::size_t>(num_species_);
  // Delta matrix: one row per non-null reaction, one column per species.
  std::vector<std::vector<Rat>> d;
  for (const Reaction& r : network_->reactions()) {
    const auto net = net_deltas(r, num_species_);
    if (std::all_of(net.begin(), net.end(),
                    [](std::int64_t v) { return v == 0; })) {
      continue;
    }
    std::vector<Rat> row(ns);
    for (std::size_t s = 0; s < ns; ++s) row[s] = rat(net[s]);
    d.push_back(std::move(row));
  }

  std::vector<int> natural(ns);
  std::iota(natural.begin(), natural.end(), 0);
  const auto d_pivots = rref(d, natural);

  // Null space of the delta matrix = conserved weightings: one basis
  // vector per free column f, with v[f] = 1 and v[p] = -rref[row(p)][f].
  std::vector<char> is_pivot(ns, 0);
  for (int p : d_pivots) is_pivot[static_cast<std::size_t>(p)] = 1;
  std::vector<std::vector<Rat>> basis;
  for (std::size_t f = 0; f < ns; ++f) {
    if (is_pivot[f]) continue;
    std::vector<Rat> v(ns);
    v[f] = rat(1);
    for (std::size_t i = 0; i < d_pivots.size(); ++i) {
      v[static_cast<std::size_t>(d_pivots[i])] = rat(0) - d[i][f];
    }
    basis.push_back(std::move(v));
  }
  if (basis.empty()) return;

  // Re-eliminate the law matrix preferring large-capacity pivots: the box
  // shrinks by (cap+1) per eliminated species, so dropping the substrate
  // beats dropping an enzyme.
  std::vector<int> by_cap(ns);
  std::iota(by_cap.begin(), by_cap.end(), 0);
  std::stable_sort(by_cap.begin(), by_cap.end(), [&](int a, int b) {
    return network_->capacity(a) > network_->capacity(b);
  });
  const auto law_pivots = rref(basis, by_cap);

  for (std::size_t i = 0; i < law_pivots.size(); ++i) {
    // A non-integer solved form cannot index integer copy numbers; the
    // pivot species simply stays free (strictly larger box, still exact).
    if (std::any_of(basis[i].begin(), basis[i].end(),
                    [](const Rat& v) { return !v.integer(); })) {
      continue;
    }
    ConservationLaw law;
    law.species = law_pivots[i];
    std::int64_t total =
        anchor_[static_cast<std::size_t>(law.species)];
    for (std::size_t s = 0; s < ns; ++s) {
      if (static_cast<int>(s) == law.species || basis[i][s].zero()) continue;
      law.terms.push_back({static_cast<int>(s), basis[i][s].n});
      total += basis[i][s].n * anchor_[s];
    }
    law.total = total;
    laws_.push_back(std::move(law));
  }
}

void StencilTable::build_geometry() {
  std::vector<char> derived(static_cast<std::size_t>(num_species_), 0);
  for (const auto& law : laws_) {
    derived[static_cast<std::size_t>(law.species)] = 1;
  }
  for (int s = 0; s < num_species_; ++s) {
    if (!derived[static_cast<std::size_t>(s)]) free_species_.push_back(s);
  }
  // Fastest digit (weight 1) gets the largest radix: the sweep processes
  // runs of consecutive rows along the fastest digit, so the largest
  // capacity yields the longest vectorizable inner loops.
  std::stable_sort(free_species_.begin(), free_species_.end(),
                   [&](int a, int b) {
                     return network_->capacity(a) < network_->capacity(b);
                   });

  const auto m = free_species_.size();
  radix_.resize(m);
  weight_.resize(m);
  std::int64_t rows = 1;
  for (std::size_t d = m; d-- > 0;) {
    radix_[d] = network_->capacity(free_species_[d]) + 1;
    weight_[d] = rows;
    rows *= radix_[d];
    if (rows > std::numeric_limits<index_t>::max()) {
      throw std::invalid_argument(
          "StencilTable: conservation-reduced box exceeds index_t; shrink "
          "capacities");
    }
  }
  box_rows_ = static_cast<index_t>(rows);
}

void StencilTable::compile_reactions() {
  const int nr = network_->num_reactions();
  for (int k = 0; k < nr; ++k) {
    const Reaction& r = network_->reaction(k);
    const auto net = net_deltas(r, num_species_);

    StencilReaction sr;
    sr.reaction = k;
    sr.rate = r.rate;
    for (std::size_t d = 0; d < free_species_.size(); ++d) {
      sr.stride += net[static_cast<std::size_t>(free_species_[d])] *
                   weight_[d];
    }
    // A zero stride means zero net change on every free digit, which the
    // laws propagate to every derived species: a null transition. It
    // cancels in the generator exactly as in rate_matrix().
    if (sr.stride == 0) continue;
    if (r.rate <= 0.0) {
      ++rate_dropped_;
      continue;
    }

    WindowSet in, out;
    for (std::size_t s = 0; s < net.size(); ++s) {
      if (net[s] == 0) continue;
      // Predecessor validity: x[s] - net in [0, cap].
      in.intersect(static_cast<int>(s), net[s],
                   network_->capacity(static_cast<int>(s)) + net[s]);
    }
    for (std::size_t s = 0; s < net.size(); ++s) {
      if (net[s] == 0) continue;
      // within_capacity bounds each species' summed change ...
      out.intersect(static_cast<int>(s), -net[s],
                    network_->capacity(static_cast<int>(s)) - net[s]);
    }
    for (const auto& ch : r.changes) {
      const std::int64_t cap = network_->capacity(ch.species);
      // ... and each change entry individually.
      out.intersect(ch.species, -ch.delta, cap - ch.delta);
      // ... and at the predecessor it reads x[s] - net + delta in [0, cap].
      in.intersect(ch.species,
                   net[static_cast<std::size_t>(ch.species)] - ch.delta,
                   net[static_cast<std::size_t>(ch.species)] - ch.delta +
                       cap);
    }
    sr.in_checks = in.compile(*network_);
    sr.out_checks = out.compile(*network_);

    for (const auto& re : r.reactants) {
      const auto shift =
          static_cast<std::int32_t>(-net[static_cast<std::size_t>(re.species)]);
      sr.in_factors.push_back({re.species, shift, re.copies});
      sr.out_factors.push_back({re.species, 0, re.copies});
    }
    reactions_.push_back(std::move(sr));
  }
}

index_t StencilTable::box_index(const State& x) const {
  if (x.size() != static_cast<std::size_t>(num_species_) ||
      !network_->valid_state(x)) {
    return -1;
  }
  for (const auto& law : laws_) {
    std::int64_t v = static_cast<std::int64_t>(
        x[static_cast<std::size_t>(law.species)]);
    for (const auto& t : law.terms) {
      v += t.coeff * x[static_cast<std::size_t>(t.species)];
    }
    if (v != law.total) return -1;  // different conservation class
  }
  std::int64_t row = 0;
  for (std::size_t d = 0; d < free_species_.size(); ++d) {
    row += static_cast<std::int64_t>(
               x[static_cast<std::size_t>(free_species_[d])]) *
           weight_[d];
  }
  return static_cast<index_t>(row);
}

void StencilTable::decode(index_t row, State& x) const {
  x.assign(static_cast<std::size_t>(num_species_), 0);
  std::int64_t rem = row;
  for (std::size_t d = 0; d < free_species_.size(); ++d) {
    const std::int64_t digit = rem / weight_[d];
    rem -= digit * weight_[d];
    x[static_cast<std::size_t>(free_species_[d])] =
        static_cast<std::int32_t>(digit);
  }
  for (const auto& law : laws_) {
    std::int64_t v = law.total;
    for (const auto& t : law.terms) {
      v -= t.coeff * x[static_cast<std::size_t>(t.species)];
    }
    x[static_cast<std::size_t>(law.species)] = static_cast<std::int32_t>(v);
  }
}

bool StencilTable::row_valid(const State& x) const {
  for (const auto& law : laws_) {
    const std::int32_t v = x[static_cast<std::size_t>(law.species)];
    if (v < 0 || v > network_->capacity(law.species)) return false;
  }
  return true;
}

real_t StencilTable::in_propensity(const StencilReaction& r,
                                   const State& x) const {
  return r.rate * unit_in_propensity(r, x);
}

real_t StencilTable::unit_in_propensity(const StencilReaction& r,
                                        const State& x) const {
  for (const auto& c : r.in_checks) {
    const std::int32_t v = x[static_cast<std::size_t>(c.species)];
    if (v < c.lo || v > c.hi) return 0.0;
  }
  real_t a = 1.0;
  for (const auto& f : r.in_factors) {
    a *= cmesolve::binomial(x[static_cast<std::size_t>(f.species)] + f.shift,
                        f.copies);
    if (a == 0.0) return 0.0;
  }
  return a;
}

real_t StencilTable::out_propensity(const StencilReaction& r,
                                    const State& x) const {
  return r.rate * unit_out_propensity(r, x);
}

real_t StencilTable::unit_out_propensity(const StencilReaction& r,
                                         const State& x) const {
  for (const auto& c : r.out_checks) {
    const std::int32_t v = x[static_cast<std::size_t>(c.species)];
    if (v < c.lo || v > c.hi) return 0.0;
  }
  real_t a = 1.0;
  for (const auto& f : r.out_factors) {
    a *= cmesolve::binomial(x[static_cast<std::size_t>(f.species)] + f.shift,
                        f.copies);
    if (a == 0.0) return 0.0;
  }
  return a;
}

void StencilTable::build_diagonal() {
  const auto n = static_cast<std::size_t>(box_rows_);
  diag_.assign(n, -1.0);

  struct Counts {
    std::size_t nnz = 0;
    std::int64_t masked = 0;
  };
  // Fixed-chunk reduction: diagonal stores are disjoint per row and the
  // integer totals combine in chunk order, so the pass is bit-identical
  // at any thread count.
  const Counts totals = util::parallel_reduce(
      n, static_cast<std::size_t>(kDiagChunk), Counts{},
      [&](std::size_t b, std::size_t e) {
        Counts c;
        State x(static_cast<std::size_t>(num_species_));
        for (std::size_t i = b; i < e; ++i) {
          decode(static_cast<index_t>(i), x);
          if (!row_valid(x)) {
            ++c.masked;
            continue;
          }
          real_t out_rate = 0.0;
          for (const auto& r : reactions_) {
            const real_t a = out_propensity(r, x);
            if (a > 0.0) {
              out_rate += a;
              ++c.nnz;
            }
          }
          if (out_rate > 0.0) {
            diag_[i] = -out_rate;
          } else {
            ++c.masked;  // absorbing-in-box corner: masked, not zero-diag
          }
        }
        return c;
      },
      [](Counts acc, Counts c) {
        acc.nnz += c.nnz;
        acc.masked += c.masked;
        return acc;
      });
  offdiag_nnz_ = totals.nnz;
  rows_masked_ = static_cast<index_t>(totals.masked);
}

}  // namespace cmesolve::core
