// Lightweight statistics primitives: counters, scalar trackers and fixed-bin
// histograms, plus a registry that modules use to expose their stats for the
// end-of-run report. No locking: the simulator is single-threaded per system
// instance (parallel sweeps run one system per thread, each with its own
// registry — the contract common/parallel.hpp documents and the TSan CI job
// checks). The partitioned driver (docs/partitioning.md) gives each
// partition its own registry shard and merges the shards at report time,
// keeping the lock-free hot path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace tcmp {

class SnapshotWriter;
class SnapshotReader;

/// Running mean/min/max/count of a scalar sample stream.
class ScalarStat {
 public:
  void add(double v) {
    sum_ += v;
    sum_sq_ += v * v;
    min_ = count_ == 0 ? v : std::min(min_, v);
    max_ = count_ == 0 ? v : std::max(max_, v);
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const {
    if (count_ < 2) return 0.0;
    const double n = static_cast<double>(count_);
    return std::max(0.0, sum_sq_ / n - (sum_ / n) * (sum_ / n));
  }
  void reset() { *this = ScalarStat{}; }

  /// Fold another sample stream into this one (partition-shard merge): the
  /// result is what one stat fed both streams would hold, up to FP addition
  /// order in sum/sum_sq.
  void merge(const ScalarStat& o) {
    if (o.count_ == 0) return;
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = count_ == 0 ? o.max_ : std::max(max_, o.max_);
    sum_ += o.sum_;
    sum_sq_ += o.sum_sq_;
    count_ += o.count_;
  }

  /// Checkpoint serialization (common/snapshot.hpp): raw double bits travel,
  /// so restored sums continue accumulating byte-identically.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(sum_);
    ar.field(sum_sq_);
    ar.field(min_);
    ar.field(max_);
    ar.field(count_);
  }

 private:
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Histogram with uniform integer bins [0, bin_width, 2*bin_width, ...); the
/// last bin is an overflow catch-all.
class Histogram {
 public:
  explicit Histogram(std::size_t bins = 32, std::uint64_t bin_width = 1)
      : bins_(bins, 0), bin_width_(bin_width) {
    TCMP_CHECK(bins >= 2 && bin_width >= 1);
  }

  void add(std::uint64_t v) {
    scalar_.add(static_cast<double>(v));
    std::size_t idx = static_cast<std::size_t>(v / bin_width_);
    if (idx >= bins_.size()) idx = bins_.size() - 1;
    ++bins_[idx];
  }

  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return bins_; }
  [[nodiscard]] std::uint64_t bin_width() const { return bin_width_; }
  [[nodiscard]] const ScalarStat& scalar() const { return scalar_; }

  /// Value below which `q` (0..1) of the samples fall, estimated from bins.
  [[nodiscard]] double quantile(double q) const;

  /// Fold another histogram with identical bin geometry into this one
  /// (partition-shard merge).
  void merge(const Histogram& o) {
    TCMP_CHECK(bins_.size() == o.bins_.size() && bin_width_ == o.bin_width_);
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
    scalar_.merge(o.scalar_);
  }

  /// Zero every bin and the running moments, keeping the bin geometry (and
  /// therefore any cached pointers to this histogram) intact.
  void clear_values() {
    std::fill(bins_.begin(), bins_.end(), 0);
    scalar_.reset();
  }

  /// Checkpoint serialization (common/snapshot.hpp). Assigns in place, so a
  /// registry node (and any interned HistogramRef) survives a load; geometry
  /// is overwritten with the saved values, which a same-config restore
  /// registered identically anyway.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(bins_);
    ar.field(bin_width_);
    ar.field(scalar_);
  }

 private:
  std::vector<std::uint64_t> bins_;
  // clear_values() deliberately keeps the bin geometry so the histogram
  // shape (and cached Histogram pointers) stay valid across resets.
  // tcmplint: reset-exempt (bin geometry survives clear_values by design)
  std::uint64_t bin_width_;
  ScalarStat scalar_;
};

class StatRegistry;

/// Interned handle to a registry counter: the string lookup happens exactly
/// once (at construction / init time), after which bumps are a single pointer
/// chase. Handles stay valid across zero_all() — the registry's maps are
/// node-based and zero_all() writes values in place — and are invalidated
/// only by StatRegistry::reset().
class CounterRef {
 public:
  CounterRef() = default;
  CounterRef& operator++() {
    ++*slot_;
    return *this;
  }
  CounterRef& operator+=(std::uint64_t delta) {
    *slot_ += delta;
    return *this;
  }
  /// Undo of a prior increment (the barrier-replay driver rolls back a
  /// provisional blocked tick; see docs/partitioning.md).
  CounterRef& operator--() {
    TCMP_DCHECK(*slot_ > 0);
    --*slot_;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return *slot_; }
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }

 private:
  friend class StatRegistry;
  explicit CounterRef(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Interned handle to a registry scalar (same stability contract as
/// CounterRef).
class ScalarRef {
 public:
  ScalarRef() = default;
  void add(double v) { stat_->add(v); }
  [[nodiscard]] const ScalarStat& get() const { return *stat_; }
  [[nodiscard]] bool valid() const { return stat_ != nullptr; }

 private:
  friend class StatRegistry;
  explicit ScalarRef(ScalarStat* stat) : stat_(stat) {}
  ScalarStat* stat_ = nullptr;
};

/// Interned handle to a registry histogram (same stability contract as
/// CounterRef: clear_values() keeps the bin geometry, so handles survive the
/// warmup/measurement boundary).
class HistogramRef {
 public:
  HistogramRef() = default;
  void add(std::uint64_t v) { hist_->add(v); }
  [[nodiscard]] const Histogram& get() const { return *hist_; }
  [[nodiscard]] bool valid() const { return hist_ != nullptr; }

 private:
  friend class StatRegistry;
  explicit HistogramRef(Histogram* hist) : hist_(hist) {}
  Histogram* hist_ = nullptr;
};

/// Named stat registry. Components register plain counters / scalars; the CMP
/// report walks it. Names are hierarchical ("noc.vl.flit_hops").
///
/// Hot-path contract: components resolve their stats ONCE at construction via
/// the *_ref methods and bump through the returned handles; per-event
/// string-keyed lookups are banned in hot-path files (tcmplint rule
/// stat-string-hot-path). Handles remain valid across zero_all() and are
/// invalidated only by reset().
class StatRegistry {
 public:
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  ScalarStat& scalar(const std::string& name) { return scalars_[name]; }
  /// Named histogram; the bin geometry is fixed by whoever registers it
  /// first (later callers get the existing histogram unchanged).
  Histogram& histogram(const std::string& name, std::size_t bins = 64,
                       std::uint64_t bin_width = 1) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.try_emplace(name, Histogram(bins, bin_width)).first;
    }
    return it->second;
  }

  /// Interned handles: one-time name resolution for per-event bump sites.
  [[nodiscard]] CounterRef counter_ref(const std::string& name) {
    return CounterRef(&counter(name));
  }
  [[nodiscard]] ScalarRef scalar_ref(const std::string& name) {
    return ScalarRef(&scalar(name));
  }
  [[nodiscard]] HistogramRef histogram_ref(const std::string& name,
                                           std::size_t bins = 64,
                                           std::uint64_t bin_width = 1) {
    return HistogramRef(&histogram(name, bins, bin_width));
  }

  /// Read-only lookup that never creates the counter: nullptr when no such
  /// counter exists (yet). Callers that must not perturb the report's counter
  /// set (e.g. the time-series sampler, whose column list may name counters
  /// a given configuration never registers) cache the result once it
  /// resolves; the pointer is stable for the registry's lifetime (reset()
  /// excepted).
  [[nodiscard]] const std::uint64_t* find_counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, ScalarStat>& scalars() const { return scalars_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  /// nullptr when no histogram of that name was registered.
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  /// Sum of all counters whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t sum_prefix(const std::string& prefix) const;

  void reset();

  /// Zero every value in place, keeping map nodes (and therefore any cached
  /// pointers into the registry) valid. Used at the warmup/measurement
  /// boundary.
  void zero_all();

  /// Fold a partition shard into this registry, name-keyed: counters add,
  /// scalars merge their moments, histograms (same geometry) add per bin.
  /// Stats the shard has and this registry lacks are created. Shards are
  /// merged in partition-index order so FP accumulation order — the only
  /// order-sensitive part — is deterministic for a given K.
  void merge_from(const StatRegistry& shard);

  /// Checkpoint save/load (common/snapshot.hpp). load() applies values IN
  /// PLACE, zero_all-style: existing map nodes are kept so every interned
  /// CounterRef/ScalarRef/HistogramRef resolved at construction stays valid
  /// across a restore; names the snapshot has and this registry lacks are
  /// created (both runs register the same set at construction, so in a
  /// same-config restore this path is idle).
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, ScalarStat> scalars_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace tcmp
