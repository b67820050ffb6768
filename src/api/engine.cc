#include "api/engine.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "market/market_stream.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

std::string JoinStrings(const std::vector<std::string>& parts,
                        const char* separator) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += separator;
    out += part;
  }
  return out;
}

std::string RegisteredKeyList() {
  return JoinStrings(BundlerRegistry::Global().Keys(), ", ");
}

// Validates a Sweep/Resolve spec. Unknown methods are the most common
// authoring mistake, so their diagnostic carries the registry's key list.
Status ValidateGridSpec(const ScenarioSpec& spec) {
  std::string diagnostic;
  if (ValidateScenarioSpec(spec, &diagnostic)) return Status::Ok();
  if (diagnostic.find("unknown method") != std::string::npos) {
    diagnostic += " (valid: " + RegisteredKeyList() + ")";
  }
  return Status::InvalidArgument("invalid scenario: " + diagnostic);
}

Status ValidateShard(int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    return Status::InvalidArgument(
        StrFormat("bad shard %d/%d (need 0 <= index < count)", shard_index,
                  shard_count));
  }
  return Status::Ok();
}

// Every cache key derived from a market starts with one of these prefixes:
// resolve lines are "market:<id>;spec=<spec text>", WTP and mining scopes
// "market:<id>@v<version>". EvictMarketCaches erases by exactly these.
enum class MarketCache { kResolve, kWtp };
std::string MarketKeyPrefix(const std::string& market_id, MarketCache cache) {
  return "market:" + market_id +
         (cache == MarketCache::kResolve ? ";spec=" : "@v");
}

}  // namespace

std::string DatasetCacheKey(const DatasetSpec& spec) { return DatasetKey(spec); }

// Mined itemset collections kept alive, keyed by (data, support count): a
// freq-support axis with two values occupies two entries. The same size as
// the sibling caches' defaults.
constexpr std::size_t kMiningCacheCapacity = 8;

Engine::Engine(const Options& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads)),
      dataset_cache_(options.dataset_cache_capacity),
      wtp_cache_(options.wtp_cache_capacity),
      mining_cache_(kMiningCacheCapacity),
      resolve_cache_(options.resolve_cache_capacity) {}

Engine::~Engine() = default;

ThreadPool* Engine::SharedPoolFor(int threads) const {
  return threads == options_.threads ? pool_.get() : nullptr;
}

std::shared_ptr<const RatingsDataset> Engine::DatasetFor(
    const DatasetSpec& spec, bool* hit) {
  const std::string key = DatasetCacheKey(spec);
  // Generation runs under the lock: concurrent batch requests for the same
  // key then materialize once instead of racing, and distinct keys are rare
  // enough per batch that the serialization is cheap relative to a solve.
  MutexLock lock(cache_mu_);
  const auto* cached = dataset_cache_.Find(key);
  if (hit != nullptr) *hit = cached != nullptr;
  if (cached != nullptr) {
    ++dataset_hits_;
    return *cached;
  }
  ++dataset_misses_;
  auto dataset =
      std::make_shared<const RatingsDataset>(MaterializeDataset(spec));
  dataset_cache_.Put(key, dataset);
  return dataset;
}

std::shared_ptr<const WtpMatrix> Engine::WtpFor(const std::string& scope,
                                                const RatingsDataset& dataset,
                                                double lambda) {
  // λ joins the key because neither scope includes it: one dataset serves
  // many λ points (lambda-axis sweeps), each with its own derived matrix.
  // FormatDoubleShortest round-trips, so distinct λ never collide.
  const std::string key = scope + ";lambda=" + FormatDoubleShortest(lambda);
  // Derivation runs under the lock, mirroring DatasetFor: concurrent
  // requests for the same key derive once.
  MutexLock lock(cache_mu_);
  if (const auto* cached = wtp_cache_.Find(key)) {
    ++wtp_hits_;
    return *cached;
  }
  ++wtp_misses_;
  auto wtp = std::make_shared<const WtpMatrix>(
      WtpMatrix::FromRatings(dataset, lambda));
  wtp_cache_.Put(key, wtp);
  return wtp;
}

MinedItemsets Engine::ItemsetsFor(const std::string& scope,
                                  int min_support_count,
                                  const ItemsetMiner& mine,
                                  const SolveContext& context) {
  const std::string key = scope + ";support=" + std::to_string(min_support_count);
  // A caller with a deadline waits for another caller's mine of the key only
  // until its own deadline. Then it mines itself, unstored: that mine stops
  // at once, as its own mine would have stopped at the deadline.
  const double budget = context.options().deadline_seconds;
  const auto wait_until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget - context.ElapsedSeconds()));
  std::shared_ptr<MiningSlot> slot;  // Set when this caller mines for the cache.
  {
    MutexLock lock(cache_mu_);
    while (true) {
      const auto* cached = mining_cache_.Find(key);
      if (cached == nullptr) {
        slot = std::make_shared<MiningSlot>();
        mining_cache_.Put(key, slot);
        break;
      }
      if ((*cached)->itemsets != nullptr) {
        ++mining_hits_;
        return (*cached)->itemsets;
      }
      // Another caller is mining the key. Every pass looks the key up
      // again, so a waiter always sees the slot the cache holds now.
      if (budget <= 0.0) {
        mined_cv_.Wait(cache_mu_);
      } else if (!mined_cv_.WaitUntil(cache_mu_, wait_until)) {
        break;
      }
    }
  }
  // A mine takes tens to hundreds of milliseconds, so it never runs under
  // cache_mu_: other keys and the dataset/WTP lookups do not wait for it.
  bool complete = false;
  MinedItemsets itemsets = mine(&complete);
  MutexLock lock(cache_mu_);
  ++mining_misses_;
  if (slot == nullptr) return itemsets;
  // The result lands only in the slot the cache still holds: an eviction
  // during the mine drops it. A deadline or max_results stop may miss
  // maximal sets, so it serves this solve only and its slot leaves the
  // cache; a waiter then takes the key over.
  if (const auto* cached = mining_cache_.Find(key);
      cached != nullptr && *cached == slot) {
    if (complete) {
      slot->itemsets = itemsets;
    } else {
      mining_cache_.Erase(key);
    }
  }
  mined_cv_.NotifyAll();
  return itemsets;
}

Engine::CacheStats Engine::dataset_cache_stats() const {
  MutexLock lock(cache_mu_);
  return CacheStats{dataset_hits_, dataset_misses_, dataset_cache_.size()};
}

Engine::CacheStats Engine::wtp_cache_stats() const {
  MutexLock lock(cache_mu_);
  return CacheStats{wtp_hits_, wtp_misses_, wtp_cache_.size()};
}

Engine::CacheStats Engine::mining_cache_stats() const {
  MutexLock lock(cache_mu_);
  return CacheStats{mining_hits_, mining_misses_, mining_cache_.size()};
}

Engine::CacheStats Engine::resolve_cache_stats() const {
  MutexLock lock(resolve_mu_);
  return CacheStats{resolve_hits_, resolve_misses_, resolve_cache_.size()};
}

void Engine::EvictMarketCaches(const std::string& market_id) {
  {
    MutexLock lock(resolve_mu_);
    resolve_cache_.ErasePrefix(
        MarketKeyPrefix(market_id, MarketCache::kResolve));
  }
  MutexLock lock(cache_mu_);
  const std::string data_prefix = MarketKeyPrefix(market_id, MarketCache::kWtp);
  wtp_cache_.ErasePrefix(data_prefix);
  mining_cache_.ErasePrefix(data_prefix);
}

Status ValidateMethodKey(const std::string& method) {
  if (!BundlerRegistry::Global().Has(method)) {
    return Status::NotFound(StrFormat("unknown method key '%s' (valid: %s)",
                                      method.c_str(),
                                      RegisteredKeyList().c_str()));
  }
  return Status::Ok();
}

Status ValidateDatasetProfile(const std::string& profile) {
  // Every other DatasetSpec default is in the domain, so only the profile
  // can fail here.
  DatasetSpec spec;
  spec.profile = profile;
  std::string diagnostic;
  if (ValidateDatasetSpec(spec, &diagnostic)) return Status::Ok();
  return Status::InvalidArgument(diagnostic);
}

StatusOr<SolveResponse> Engine::Solve(const SolveRequest& request) {
  if (Status method = ValidateMethodKey(request.method); !method.ok()) {
    return method;
  }

  // Resolve the problem: caller-owned, or materialized from a dataset
  // reference. The derived WTP matrix must outlive the solve only — offers
  // copy everything they need.
  BundleConfigProblem problem;
  std::shared_ptr<const RatingsDataset> dataset_holder;
  std::shared_ptr<const WtpMatrix> wtp_holder;
  // Only a dataset reference names its data, so only it can share mines;
  // a caller-owned problem mines locally.
  std::string data_scope;
  if (request.problem != nullptr) {
    if (request.problem->wtp == nullptr) {
      return Status::InvalidArgument("SolveRequest problem has no WTP matrix");
    }
    problem = *request.problem;
  } else if (request.dataset.has_value()) {
    const DatasetSpec& spec = *request.dataset;
    StatusOr<std::shared_ptr<const RatingsDataset>> dataset = Dataset(spec);
    if (!dataset.ok()) return dataset.status();
    dataset_holder = *dataset;
    data_scope = DatasetCacheKey(spec);
    wtp_holder = WtpFor(data_scope, *dataset_holder, spec.lambda);
    problem.wtp = wtp_holder.get();
    problem.theta = request.theta;
    problem.max_bundle_size = request.max_bundle_size;
    problem.price_levels = request.price_levels;
  } else {
    return Status::InvalidArgument(
        "SolveRequest needs a problem or a dataset reference");
  }

  SolveContext::Options context_options;
  context_options.num_threads = EffectiveThreads(request.options);
  context_options.seed = request.options.seed;
  context_options.deadline_seconds = request.options.deadline_seconds;
  SolveContext context(context_options);
  const ItemsetProvider itemset_provider =
      [this](const SolveContext& solve_context, int min_support_count,
             const ItemsetMiner& mine) {
        return ItemsetsFor(solve_context.data_scope(), min_support_count, mine,
                           solve_context);
      };
  if (!data_scope.empty()) {
    context.set_itemset_provider(&itemset_provider, data_scope);
  }

  WallTimer timer;
  SolveResponse response;
  response.solution = SolveMethod(request.method, std::move(problem), context);
  response.wall_seconds = timer.Seconds();
  response.stats = context.stats();
  return response;
}

std::vector<StatusOr<SolveResponse>> Engine::SolveBatch(
    const std::vector<SolveRequest>& requests) {
  std::vector<StatusOr<SolveResponse>> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(Status::Internal("batch slot not filled"));
  }
  // Requests are the unit of parallelism; each solves with the serial
  // inner path so the result depends only on the request, not on which
  // worker ran it (mirroring the sweep runner's per-cell contract). Callers
  // wanting parallel candidate evaluation inside one big solve use Solve.
  // Concurrent bulk calls share the pool: each is its own ParallelFor job.
  pool_->ParallelFor(requests.size(), [&](std::size_t index, int /*slot*/) {
    SolveRequest request = requests[index];
    request.options.threads = 1;
    responses[index] = Solve(request);
  });
  return responses;
}

StatusOr<SweepResponse> Engine::Sweep(const SweepRequest& request) {
  if (Status spec = ValidateGridSpec(request.spec); !spec.ok()) return spec;
  if (Status shard = ValidateShard(request.shard_index, request.shard_count);
      !shard.ok()) {
    return shard;
  }

  WallTimer timer;
  std::vector<SweepCell> cells = ExpandGrid(request.spec);
  const int grid_cells = static_cast<int>(cells.size());
  cells = FilterShard(std::move(cells), request.shard_index, request.shard_count);

  SweepResponse response;
  response.grid_cells = grid_cells;
  std::shared_ptr<const RatingsDataset> dataset =
      DatasetFor(request.spec.dataset, &response.dataset_cache_hit);
  response.result = RunGrid(request.spec, cells, *dataset, /*data_scope=*/"",
                            request.options, /*hints=*/nullptr,
                            request.capture_traces);
  response.result.wall_seconds = timer.Seconds();
  return response;
}

SweepResult Engine::RunGrid(const ScenarioSpec& spec,
                            const std::vector<SweepCell>& cells,
                            const RatingsDataset& dataset,
                            const std::string& data_scope,
                            const RequestOptions& options,
                            const std::vector<ResolveHints>* hints,
                            bool capture_traces) {
  SweepRunnerOptions runner_options;
  runner_options.threads = EffectiveThreads(options);
  runner_options.deadline_seconds = options.deadline_seconds;
  runner_options.capture_traces = capture_traces;
  runner_options.hints = hints;
  // Dataset-axis cells regenerate their datasets through the Engine's keyed
  // cache, so repeated sweeps over the same scalability grid materialize
  // each point once. (Resolve rejects dataset axes, so it never calls this.)
  DatasetProvider provider = [this](const DatasetSpec& cell_dataset) {
    return DatasetFor(cell_dataset);
  };
  // Derived WTP matrices go through the λ-keyed cache, so repeated grids
  // over the same data skip the FromRatings pass as well as the generation.
  WtpProvider wtp_provider = [this, &data_scope](const DatasetSpec& cell_dataset,
                                                 const RatingsDataset& cell_data,
                                                 double lambda) {
    return WtpFor(data_scope.empty() ? DatasetCacheKey(cell_dataset) : data_scope,
                  cell_data, lambda);
  };
  // Freq cells' mines go through the support-keyed cache: every θ/γ/α/k/λ
  // point of one dataset shares one mine. A cell's context names its
  // dataset by DatasetKey, which is DatasetCacheKey.
  ItemsetProvider itemset_provider = [this, &data_scope](
                                         const SolveContext& context,
                                         int min_support_count,
                                         const ItemsetMiner& mine) {
    return ItemsetsFor(data_scope.empty() ? context.data_scope() : data_scope,
                       min_support_count, mine, context);
  };
  return RunSweepCells(spec, cells, dataset, runner_options,
                       SharedPoolFor(runner_options.threads), provider,
                       wtp_provider, itemset_provider);
}

StatusOr<std::shared_ptr<const RatingsDataset>> Engine::Dataset(
    const DatasetSpec& spec) {
  if (std::string diagnostic; !ValidateDatasetSpec(spec, &diagnostic)) {
    return Status::InvalidArgument("invalid dataset: " + diagnostic);
  }
  return DatasetFor(spec);
}

StatusOr<ResolveResponse> Engine::Resolve(const ResolveRequest& request) {
  if (request.market == nullptr) {
    return Status::InvalidArgument("ResolveRequest needs a market stream");
  }
  if (Status spec = ValidateGridSpec(request.spec); !spec.ok()) return spec;
  if (HasDatasetAxes(request.spec)) {
    return Status::InvalidArgument(
        "resolve spec cannot carry dataset axes — the market stream supplies "
        "the dataset");
  }
  if (!request.market->loaded()) {
    return Status::InvalidArgument(
        "market stream '" + request.market->id() +
        "' has no resident dataset — send a load first");
  }

  WallTimer timer;
  MarketStream::Snapshot snap = request.market->TakeSnapshot();
  // Deadline-limited solves are wall-clock-dependent; never cache them.
  const bool cacheable = request.options.deadline_seconds == 0.0 &&
                         options_.resolve_cache_capacity > 0;
  const std::string& market_id = request.market->id();
  const std::string key = MarketKeyPrefix(market_id, MarketCache::kResolve) +
                          FormatScenarioSpec(request.spec);

  // Pull the prior solver state out of the cache entry (or answer outright
  // when the market hasn't moved). The solver cells are *moved* out so the
  // solve below runs without resolve_mu_ held.
  std::uint64_t solver_version = 0;
  std::vector<MatchingPairCache> solver_cells;
  {
    MutexLock lock(resolve_mu_);
    if (ResolveEntry* entry = resolve_cache_.Find(key)) {
      if (cacheable && entry->version == snap.version) {
        ++resolve_hits_;
        ResolveResponse response = entry->response;
        response.response_cache_hit = true;
        return response;
      }
      solver_version = entry->version;
      solver_cells.swap(entry->solver_cells);  // The entry keeps none.
    }
    ++resolve_misses_;
  }

  std::vector<SweepCell> cells = ExpandGrid(request.spec);
  ResolveResponse response;
  response.grid_cells = static_cast<int>(cells.size());
  response.market_version = snap.version;

  // Per-cell hints: the maintained transaction view always, the prior pair
  // outcomes + dirty-item mask when a previous resolve of this key left
  // them, and a fill sink when this solve's outcomes are worth keeping.
  // Resolve always runs the full grid, so cell.index indexes `hints`.
  std::vector<char> dirty;
  if (!solver_cells.empty()) {
    dirty = request.market->ItemsTouchedSince(solver_version);
  }
  std::vector<MatchingPairCache> fills(cells.size());
  std::vector<ResolveHints> hints(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    hints[i].transactions = snap.transactions.get();
    if (cacheable) hints[i].fill = &fills[i];
    if (i < solver_cells.size()) {
      hints[i].prior = &solver_cells[i];
      hints[i].dirty_items = &dirty;
    }
  }

  // The market snapshot is the dataset; WTP matrices and mines are keyed by
  // market id + version so successive resolves reuse them only when the
  // data truly didn't move.
  response.result = RunGrid(request.spec, cells, *snap.dataset,
                            MarketKeyPrefix(market_id, MarketCache::kWtp) +
                                std::to_string(snap.version),
                            request.options, &hints, /*capture_traces=*/false);
  response.result.wall_seconds = timer.Seconds();
  for (const SweepCellResult& cell : response.result.cells) {
    response.pairs_evaluated += cell.stats.pairs_evaluated;
    response.pairs_reused += cell.stats.pairs_reused;
  }

  if (cacheable) {
    MutexLock lock(resolve_mu_);
    resolve_cache_.Put(key,
                       ResolveEntry{snap.version, std::move(fills), response});
  }
  return response;
}

StatusOr<ScenarioSpec> ResolveScenarioSpec(const std::string& argument) {
  if (argument.empty()) {
    return Status::InvalidArgument(
        "empty scenario argument (pass a preset name, 'key=value;...' text, "
        "or @path)");
  }

  ScenarioSpec spec;
  if (argument[0] == '@') {
    const std::string path = argument.substr(1);
    std::ifstream in(path);
    if (!in.good()) {
      return Status::NotFound("cannot read spec file '" + path + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string diagnostic;
    std::optional<ScenarioSpec> parsed =
        ParseScenarioSpec(buffer.str(), &diagnostic);
    if (!parsed) {
      return Status::InvalidArgument("cannot parse spec file '" + path +
                                     "': " + diagnostic);
    }
    spec = std::move(*parsed);
  } else if (const ScenarioSpec* preset = FindBuiltinScenario(argument)) {
    spec = *preset;
  } else if (argument.find('=') != std::string::npos) {
    std::string diagnostic;
    std::optional<ScenarioSpec> parsed = ParseScenarioSpec(argument, &diagnostic);
    if (!parsed) {
      return Status::InvalidArgument("cannot parse spec: " + diagnostic);
    }
    spec = std::move(*parsed);
  } else {
    std::vector<std::string> names;
    for (const ScenarioSpec& builtin : BuiltinScenarios()) {
      names.push_back(builtin.name);
    }
    return Status::NotFound(StrFormat(
        "unknown scenario preset '%s' (presets: %s; or pass inline "
        "'key=value;...' text or @path)",
        argument.c_str(), JoinStrings(names, ", ").c_str()));
  }

  if (spec.name.empty()) spec.name = "adhoc";
  std::string diagnostic;
  if (!ValidateScenarioSpec(spec, &diagnostic)) {
    return Status::InvalidArgument("invalid scenario: " + diagnostic);
  }
  return spec;
}

StatusOr<std::pair<int, int>> ParseShard(const std::string& text) {
  const Status bad = Status::InvalidArgument(
      "bad --shard value '" + text + "' (expected i/n with 0 <= i < n)");
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return bad;
  std::optional<long long> index = ParseInt(text.substr(0, slash));
  std::optional<long long> count = ParseInt(text.substr(slash + 1));
  if (!index || !count) return bad;
  if (*count < 1 || *count > std::numeric_limits<int>::max() || *index < 0 ||
      *index >= *count) {
    return bad;  // Range check before the int narrowing below.
  }
  return std::make_pair(static_cast<int>(*index), static_cast<int>(*count));
}

}  // namespace bundlemine
