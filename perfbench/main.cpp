// perfbench: the end-to-end benchmark of the Nezha epoch pipeline.
//
// One closed-loop caller stands in for consensus running ahead of execution
// (the paper's deferred execution). Per epoch it submits the epoch's
// transactions to a Mempool, draws ω blocks of them through
// TakeBatch/BuildBlock/AppendBlock, seals the epoch, hands it to
// FullNode::ProcessEpoch and waits for the durable commit (a KVStore is
// attached, so the journal + atomic-batch commit path runs) before starting
// the next epoch. Every epoch is then checked against the benchmark's own
// replay of the committed transactions (replay.h), outside the timed region.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; an operation is one epoch. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run also times each layer's public
// calls on the same inputs (spans.h) and reports the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cc/nezha/acg.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/nezha/rank_division.h"
#include "cc/nezha/tx_sorter.h"
#include "node/full_node.h"
#include "node/mempool.h"
#include "node/receipts.h"
#include "runtime/concurrent_executor.h"
#include "storage/kvstore.h"
#include "storage/state_db.h"
#include "storage/write_batch.h"

#include "replay.h"
#include "smallbank_gen.h"
#include "spans.h"

namespace {

using namespace nezha;
using perfbench::BalanceTable;
using perfbench::NowNs;
using perfbench::Scope;

const std::int64_t kProcessStartNs = NowNs();

struct WorkloadSpec {
  const char* name;
  SchemeKind scheme;
  perfbench::SmallBankParams params;
  std::size_t omega;      ///< blocks per epoch
  std::size_t block_txs;  ///< transactions per block
  std::size_t warmup_epochs;  ///< untimed epochs at the start of each round
  std::size_t round_epochs;   ///< measured epochs per round
};

// smallbank_hot and smallbank_hot_serial share every input parameter, so a
// seed gives both the same transactions.
const WorkloadSpec kWorkloads[] = {
    {"smallbank_hot", SchemeKind::kNezha, {10'000, 0.9, 100}, 8, 512, 3, 40},
    {"smallbank_hot_serial", SchemeKind::kSerial, {10'000, 0.9, 100}, 8, 512,
     3, 40},
    {"state_large", SchemeKind::kNezha, {100'000, 0.0, 100}, 4, 256, 2, 25},
};

constexpr std::int64_t kInitialBalance = 10'000;
/// A run measures at least this many epochs, so epoch_p90_ms has at least
/// ten epochs beyond it.
constexpr std::size_t kMinMeasuredEpochs = 100;
/// Whatever --seconds says, start no round this long after process start.
constexpr double kHardStopS = 140;
/// The node's pool size. One worker: the caller and the pool then take
/// turns on about one CPU, which keeps the timings steady on a shared host
/// where a thread of a wider pool is often descheduled and holds up the
/// parallel phases' joins (measured: no slower than three workers on
/// smallbank_hot, and about half the run-to-run spread).
constexpr std::size_t kBenchWorkers = 1;

std::size_t AvailableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

/// The widest pool the self-test uses: with the caller, every CPU.
std::size_t MaxWorkers() {
  return std::max<std::size_t>(1, AvailableCpus() - 1);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// Per-layer accumulators of the traced run (sums over measured epochs).
struct LayerSums {
  double admit_us = 0, take_us = 0, forget_us = 0, build_block_us = 0,
         append_block_us = 0, seal_us = 0, tx_id_us = 0, merkle_us = 0,
         process_epoch_us = 0, unattributed_ms = 0, receipts_us = 0;
  double build_schedule_us = 0, acg_us = 0, rank_us = 0, sort_us = 0,
         group_apply_us = 0, spec_exec_us = 0, vm_exec_us = 0;
  double snapshot_us = 0, root_hash_us = 0, kv_write_us = 0, pool_us = 0;
  std::uint64_t aborted = 0, reordered = 0, acg_vertices = 0, acg_edges = 0,
                groups = 0, dirty = 0, tx_id_calls = 0, pool_round_trips = 0;
  std::uint64_t txs = 0, epochs = 0;
};

class Harness {
 public:
  /// `rec` records spans when enabled (the traced run) and outlives this
  /// harness.
  Harness(const WorkloadSpec& spec, std::uint64_t seed, std::size_t workers,
          perfbench::SpanRecorder& rec)
      : spec_(spec),
        node_(MakeConfig(spec, workers), &kv_),
        mempool_(spec.omega * spec.block_txs * 2),
        gen_(spec.params, seed),
        table_(spec.params.accounts, kInitialBalance),
        rec_(rec) {
    if (rec_.enabled()) {
      shadow_ = std::make_unique<StateDB>(&shadow_kv_);
      probe_scheduler_ = MakeScheduler(SchemeKind::kNezha, &node_.pool());
    }
  }

  /// Funds every account, persists the genesis state and installs its
  /// root as the root before epoch 1.
  Status Genesis() {
    for (StateDB* db : {&node_.state(), shadow_.get()}) {
      if (db == nullptr) continue;
      for (std::uint64_t a = 0; a < spec_.params.accounts; ++a) {
        db->Set(SavingsAddress(a), kInitialBalance);
        db->Set(CheckingAddress(a), kInitialBalance);
      }
      if (Status s = db->Flush(); !s.ok()) return s;
    }
    node_.ledger().CommitEpochRoot(0, node_.state().RootHash());
    if (shadow_ && shadow_->RootHash() != node_.state().RootHash()) {
      return Status::Internal("shadow genesis root differs");
    }
    return Status::Ok();
  }

  struct EpochResult {
    std::string error;     ///< a program call failed: the epoch failed
    double ms = 0;         ///< submit -> ProcessEpoch return
    std::size_t committed = 0;
  };

  EpochResult Step() {
    const std::uint64_t index = next_index_++;
    const EpochId epoch = index + 1;
    rec_.set_epoch(epoch);
    EpochResult result;

    std::int64_t own0 = NowNs();
    std::vector<Transaction> txs =
        gen_.Epoch(index, spec_.omega * spec_.block_txs);
    own_ns_ += NowNs() - own0;

    Result<EpochBatch> batch = Status::Internal("not sealed");
    Result<EpochReport> report = Status::Internal("not processed");
    double process_us = 0;
    const std::int64_t t0 = NowNs();
    {
      Scope epoch_span(rec_, "bench", "epoch");
      std::size_t admitted = 0;
      {
        Scope s(rec_, "node", "mempool_admit", &sums_->admit_us);
        admitted = mempool_.AddAll(txs);
      }
      if (admitted != txs.size()) {
        result.error = "mempool admitted " + std::to_string(admitted) +
                       " of " + std::to_string(txs.size());
        return result;
      }
      for (ChainId chain = 0; chain < spec_.omega; ++chain) {
        std::vector<Transaction> take;
        {
          Scope s(rec_, "node", "mempool_take", &sums_->take_us);
          take = mempool_.TakeBatch(spec_.block_txs);
        }
        Block block;
        {
          Scope s(rec_, "ledger", "build_block", &sums_->build_block_us);
          block = node_.ledger().BuildBlock(chain, epoch, std::move(take));
        }
        Status appended;
        {
          Scope s(rec_, "ledger", "append_block", &sums_->append_block_us);
          appended = node_.ledger().AppendBlock(std::move(block));
        }
        if (!appended.ok()) {
          result.error = "AppendBlock: " + appended.ToString();
          return result;
        }
      }
      {
        Scope s(rec_, "ledger", "seal_epoch", &sums_->seal_us);
        batch = node_.ledger().SealEpoch(epoch);
      }
      if (!batch.ok()) {
        result.error = "SealEpoch: " + batch.status().ToString();
        return result;
      }
      {
        Scope s(rec_, "node", "process_epoch", &process_us);
        report = node_.ProcessEpoch(*batch);
      }
    }
    result.ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!report.ok()) {
      result.error = "ProcessEpoch: " + report.status().ToString();
      return result;
    }
    result.committed = report->committed;

    own0 = NowNs();
    std::vector<Hash256> ids;
    ids.reserve(txs.size());
    for (const Transaction& tx : txs) ids.push_back(tx.Id());
    Check(txs, ids, *batch, *report);
    if (rec_.enabled()) Probe(*batch, *report, process_us);
    own_ns_ += NowNs() - own0;
    {
      Scope s(rec_, "node", "mempool_forget", &sums_->forget_us);
      mempool_.RemoveCommitted(ids);
    }
    ++sums_->epochs;
    sums_->txs += txs.size();
    roots_.emplace_back(report->state_root, report->receipt_root);
    last_txs_ = std::move(txs);
    last_ids_ = std::move(ids);
    return result;
  }

  /// Compares every account of the node's state with the replay table.
  void CheckAll() {
    const std::int64_t own0 = NowNs();
    Fail(perfbench::CompareAll(node_.state(), table_));
    own_ns_ += NowNs() - own0;
  }

  /// Adds the per-layer sums of the following epochs to `*sums` (which
  /// outlives this harness); until then they go to a discarded total.
  void MeasureInto(LayerSums* sums) { sums_ = sums; }

  const WorkloadSpec& spec() const { return spec_; }
  FullNode& node() { return node_; }
  BalanceTable& table() { return table_; }
  /// First correctness failure (empty while every check passed).
  const std::string& check_error() const { return check_error_; }
  /// Time the benchmark spent on its own work: input generation, checks,
  /// probes.
  double own_s() const { return static_cast<double>(own_ns_) / 1e9; }
  const std::vector<std::pair<Hash256, Hash256>>& roots() const {
    return roots_;
  }
  const std::vector<Transaction>& last_txs() const { return last_txs_; }
  const std::vector<std::uint32_t>& last_order() const { return last_order_; }
  const EpochReport& last_report() const { return last_report_; }
  const std::vector<Hash256>& last_ids() const { return last_ids_; }

 private:
  static NodeConfig MakeConfig(const WorkloadSpec& spec, std::size_t workers) {
    NodeConfig config;
    config.scheme = spec.scheme;
    config.max_chains = static_cast<ChainId>(std::max<std::size_t>(12, spec.omega));
    config.worker_threads = workers;
    return config;
  }

  void Fail(std::string error) {
    if (!error.empty() && check_error_.empty()) {
      check_error_ = "epoch " + std::to_string(next_index_) + ": " + error;
    }
  }

  void Check(const std::vector<Transaction>& txs,
             const std::vector<Hash256>& ids, const EpochBatch& batch,
             const EpochReport& report) {
    if (batch.txs != txs) {
      return Fail("sealed batch differs from the submitted transactions");
    }
    std::vector<std::uint32_t> order;
    if (spec_.scheme == SchemeKind::kSerial) {
      if (report.committed != txs.size() || report.aborted != 0) {
        return Fail("serial epoch did not commit every transaction");
      }
      order.resize(txs.size());
      for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    } else {
      Fail(perfbench::CommitOrderFromReceipts(node_, report, ids, &order));
      if (!check_error_.empty()) return;
    }
    perfbench::Replay(table_, txs, order);
    Fail(perfbench::CompareTouched(node_.state(), table_, txs));
    last_order_ = std::move(order);
    last_report_ = report;
  }

  /// The traced run's per-layer timings: each layer's public call on this
  /// epoch's inputs, against the benchmark's shadow copy of the pre-epoch
  /// state (which then advances to the post-epoch state and must reach the
  /// node's roots).
  void Probe(const EpochBatch& batch, const EpochReport& report,
             double process_us) {
    LayerSums& m = *sums_;
    Scope probe(rec_, "bench", "probe");
    m.process_epoch_us += process_us;
    m.unattributed_ms += process_us / 1e3 - report.TotalMs();
    {
      Scope s(rec_, "ledger", "tx_id", &m.tx_id_us);
      for (const Transaction& tx : batch.txs) (void)tx.Id();
    }
    m.tx_id_calls += batch.txs.size();
    {
      Scope s(rec_, "ledger", "tx_merkle", &m.merkle_us);
      for (const Block& block : batch.blocks) {
        (void)ComputeTxMerkleRoot(block.transactions);
      }
    }
    for (int i = 0; i < 16; ++i) {
      Scope s(rec_, "common", "pool_round_trip", &m.pool_us);
      node_.pool().Submit([] {}).get();
    }
    m.pool_round_trips += 16;

    StateSnapshot snapshot;
    {
      Scope s(rec_, "storage", "snapshot", &m.snapshot_us);
      snapshot = shadow_->MakeSnapshot(batch.epoch);
    }
    BatchExecutionResult exec;
    {
      Scope s(rec_, "runtime", "speculative_exec", &m.spec_exec_us);
      exec = ExecuteBatchConcurrent(node_.pool(), snapshot, batch.txs);
    }
    {
      Scope s(rec_, "vm", "exec_serial", &m.vm_exec_us);
      (void)ExecuteBatchSerial(snapshot, batch.txs);
    }
    Result<Schedule> schedule = Status::Internal("unset");
    {
      Scope s(rec_, "cc", "build_schedule", &m.build_schedule_us);
      schedule = probe_scheduler_->BuildSchedule(exec.rwsets);
    }
    if (!schedule.ok()) return Fail("probe BuildSchedule failed");
    m.aborted += schedule->NumAborted();
    m.reordered += probe_scheduler_->metrics().reordered_txs;
    m.groups += schedule->groups.size();
    {
      AddressConflictGraph acg;
      {
        Scope s(rec_, "cc", "acg_build", &m.acg_us);
        acg = AddressConflictGraph::BuildSharded(exec.rwsets, node_.pool());
      }
      m.acg_vertices += acg.NumAddresses();
      m.acg_edges += acg.NumEdges();
      std::vector<Digraph::Vertex> ranks;
      {
        Scope s(rec_, "cc", "rank_division", &m.rank_us);
        ranks = ComputeSortingRanks(acg.dependencies());
      }
      Scope s(rec_, "cc", "tx_sorting", &m.sort_us);
      (void)SortTransactionsParallel(acg, ranks, exec.rwsets.size(),
                                     node_.pool());
    }
    {
      Scope s(rec_, "node", "receipts", &m.receipts_us);
      const std::vector<Receipt> receipts =
          BuildReceipts(batch.epoch, batch.txs, exec.rwsets, *schedule);
      const Hash256 root = ComputeReceiptRoot(receipts);
      if (spec_.scheme != SchemeKind::kSerial && root != report.receipt_root) {
        Fail("probe receipt root differs from the node's");
      }
    }
    if (spec_.scheme != SchemeKind::kSerial &&
        schedule->NumAborted() != report.aborted) {
      Fail("probe schedule aborts differ from the node's");
    }
    {
      Scope s(rec_, "cc", "group_apply", &m.group_apply_us);
      ExecuteScheduleParallel(node_.pool(), *shadow_, snapshot, *schedule,
                              exec.rwsets);
    }
    // Under Nezha the shadow must now hold the node's values; under serial
    // the node applied a different (serial) outcome, which the shadow takes
    // over so it stays the node's pre-epoch state for the next probe.
    for (const Transaction& tx : batch.txs) {
      for (const std::uint64_t a : perfbench::AccountsOf(tx.payload)) {
        for (const Address cell : {SavingsAddress(a), CheckingAddress(a)}) {
          const StateValue want = node_.state().Get(cell);
          if (shadow_->Get(cell) == want) continue;
          if (spec_.scheme != SchemeKind::kSerial) {
            Fail("probe group apply differs from the node's state");
          }
          shadow_->Set(cell, want);
        }
      }
    }
    Hash256 root;
    {
      Scope s(rec_, "storage", "root_hash", &m.root_hash_us);
      root = shadow_->RootHash();
    }
    if (root != report.state_root) Fail("probe state root differs");
    {
      Scope s(rec_, "storage", "kv_write", &m.kv_write_us);
      WriteBatch write;
      shadow_->AppendDirtyTo(write);
      m.dirty += write.Count();
      if (!shadow_kv_.Write(write).ok()) Fail("probe KV write failed");
    }
    shadow_->ClearDirty();
  }

  const WorkloadSpec& spec_;
  KVStore kv_;
  FullNode node_;
  Mempool mempool_;
  perfbench::SmallBankGenerator gen_;
  BalanceTable table_;
  perfbench::SpanRecorder& rec_;
  KVStore shadow_kv_;
  std::unique_ptr<StateDB> shadow_;
  std::unique_ptr<Scheduler> probe_scheduler_;

  std::uint64_t next_index_ = 0;
  std::int64_t own_ns_ = 0;
  LayerSums unmeasured_;
  LayerSums* sums_ = &unmeasured_;
  std::string check_error_;
  std::vector<std::pair<Hash256, Hash256>> roots_;
  std::vector<Transaction> last_txs_;
  std::vector<Hash256> last_ids_;
  std::vector<std::uint32_t> last_order_;
  EpochReport last_report_;
};

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ReadCpuModel(bool* sha_ni) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown";
  *sha_ni = false;
  while (std::getline(in, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    }
    if (line.rfind("flags", 0) == 0 && line.find(" sha_ni") != std::string::npos) {
      *sha_ni = true;
    }
  }
  std::string escaped;
  for (const char c : model) {
    if (c != '"' && c != '\\') escaped += c;
  }
  return escaped;
}

void PrintFingerprint(const std::string& workload, std::uint64_t seed,
                      bool traced, std::size_t workers,
                      const std::string& revision) {
  bool sha_ni = false;
  const std::string model = ReadCpuModel(&sha_ni);
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"nproc\":%zu,\"pool_workers\":%zu,\"cpu\":\"%s\",\"sha_ni\":%s,"
      "\"revision\":\"%s\"}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), traced ? 1 : 0,
      AvailableCpus(), workers, model.c_str(), sha_ni ? "true" : "false",
      revision.c_str());
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<Metric> LayerMetrics(const LayerSums& m,
                                 const perfbench::SpanRecorder& spans,
                                 double traced_p50_ms,
                                 std::uint64_t first_epoch,
                                 std::uint64_t last_epoch) {
  const double txs = static_cast<double>(std::max<std::uint64_t>(1, m.txs));
  const double epochs =
      static_cast<double>(std::max<std::uint64_t>(1, m.epochs));
  const auto per_tx = [&](double us) { return us / txs; };
  const auto per_epoch = [&](double v) { return v / epochs; };
  std::vector<Metric> out = {
      {"node.mempool_admit_us_per_tx", per_tx(m.admit_us), "us"},
      {"node.mempool_take_us_per_tx", per_tx(m.take_us), "us"},
      {"node.mempool_forget_us_per_tx", per_tx(m.forget_us), "us"},
      {"ledger.build_block_us_per_tx", per_tx(m.build_block_us), "us"},
      {"ledger.append_block_us_per_tx", per_tx(m.append_block_us), "us"},
      {"ledger.seal_epoch_us_per_tx", per_tx(m.seal_us), "us"},
      {"ledger.tx_id_us",
       m.tx_id_us / static_cast<double>(std::max<std::uint64_t>(1, m.tx_id_calls)),
       "us"},
      {"ledger.tx_merkle_us_per_tx", per_tx(m.merkle_us), "us"},
      {"cc.build_schedule_us_per_tx", per_tx(m.build_schedule_us), "us"},
      {"cc.acg_build_us_per_tx", per_tx(m.acg_us), "us"},
      {"cc.rank_division_us_per_tx", per_tx(m.rank_us), "us"},
      {"cc.tx_sorting_us_per_tx", per_tx(m.sort_us), "us"},
      {"cc.aborted_per_epoch", per_epoch(static_cast<double>(m.aborted)), "tx"},
      {"cc.reordered_per_epoch", per_epoch(static_cast<double>(m.reordered)),
       "tx"},
      {"cc.acg_vertices", per_epoch(static_cast<double>(m.acg_vertices)),
       "count"},
      {"cc.acg_edges", per_epoch(static_cast<double>(m.acg_edges)), "count"},
      {"cc.commit_groups_per_epoch", per_epoch(static_cast<double>(m.groups)),
       "count"},
      {"cc.group_apply_us_per_tx", per_tx(m.group_apply_us), "us"},
      {"storage.snapshot_ms", per_epoch(m.snapshot_us) / 1e3, "ms"},
      {"storage.root_hash_ms", per_epoch(m.root_hash_us) / 1e3, "ms"},
      {"storage.kv_write_ms", per_epoch(m.kv_write_us) / 1e3, "ms"},
      {"storage.dirty_addresses_per_epoch",
       per_epoch(static_cast<double>(m.dirty)), "count"},
      {"node.process_epoch_ms", per_epoch(m.process_epoch_us) / 1e3, "ms"},
      {"node.unattributed_ms", per_epoch(m.unattributed_ms), "ms"},
      {"node.receipts_us_per_tx", per_tx(m.receipts_us), "us"},
      {"runtime.speculative_exec_us_per_tx", per_tx(m.spec_exec_us), "us"},
      {"vm.exec_us_per_tx", per_tx(m.vm_exec_us), "us"},
      {"common.pool_round_trip_us",
       m.pool_us /
           static_cast<double>(std::max<std::uint64_t>(1, m.pool_round_trips)),
       "us"},
      {"node.traced_epoch_p50_ms", traced_p50_ms, "ms"},
  };
  const auto totals = spans.SelfTimes(first_epoch, last_epoch);
  for (const char* layer :
       {"bench", "node", "ledger", "cc", "storage", "runtime", "vm", "common"}) {
    const auto it = totals.find(layer);
    const double self_ms = it == totals.end() ? 0 : it->second.self_ms;
    const double count =
        it == totals.end() ? 0 : static_cast<double>(it->second.count);
    out.push_back({std::string("trace.") + layer + "_self_ms_per_epoch",
                   per_epoch(self_ms), "ms"});
    out.push_back({std::string("trace.") + layer + "_spans_per_epoch",
                   per_epoch(count), "count"});
  }
  return out;
}

// ------------------------------------------------------------ benchmark --

/// A run is a sequence of rounds. Each round builds a new node and store,
/// funds the genesis state, runs the warm-up epochs untimed, then measures
/// `round_epochs` epochs; the next round starts again from genesis with the
/// same seed, so every round does the same work. The node never prunes
/// blocks or receipts, so its epochs slow down as it ages: rounds keep the
/// measured work the same however many epochs a run gets through.
int RunBenchmark(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 bool traced, const std::string& revision,
                 const std::string& out_dir) {
  const std::size_t workers = kBenchWorkers;
  PrintFingerprint(spec.name, seed, traced, workers, revision);

  perfbench::SpanRecorder spans(traced);
  LayerSums sums;
  std::vector<double> epoch_ms;
  std::vector<double> round_tps;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t committed = 0;
  double setup_s = 0;
  double rss_mib = 0;
  std::string check_error;
  std::int64_t measure_start = 0;
  for (std::uint32_t round = 0; failed == 0; ++round) {
    if (round > 0) {
      // Stop at the round boundary nearest to --seconds.
      const double elapsed_s =
          static_cast<double>(NowNs() - measure_start) / 1e9;
      const double since_start_s =
          static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
      if (since_start_s > kHardStopS) break;
      if (epoch_ms.size() >= kMinMeasuredEpochs &&
          elapsed_s + 0.5 * elapsed_s / round >= seconds) {
        break;
      }
    }
    spans.set_round(round);
    Harness h(spec, seed, workers, spans);
    if (Status s = h.Genesis(); !s.ok()) {
      std::fprintf(stderr, "genesis failed: %s\n", s.ToString().c_str());
      PrintResult(false, 1, 1, {});
      return 1;
    }
    for (std::size_t i = 0; i < spec.warmup_epochs; ++i) {
      const Harness::EpochResult r = h.Step();
      if (!r.error.empty()) {
        std::fprintf(stderr, "warm-up epoch failed: %s\n", r.error.c_str());
        PrintResult(false, 1, 1, {});
        return 1;
      }
    }
    if (round == 0) {
      setup_s =
          static_cast<double>(NowNs() - kProcessStartNs) / 1e9 - h.own_s();
      measure_start = NowNs();
    }
    h.MeasureInto(&sums);
    std::vector<double> round_epoch_ms;
    std::size_t round_committed = 0;
    for (std::size_t i = 0; i < spec.round_epochs; ++i) {
      ++attempted;
      const Harness::EpochResult r = h.Step();
      if (!r.error.empty()) {
        // The node's state after a failed call is unknown: stop here.
        std::fprintf(stderr, "epoch failed: %s\n", r.error.c_str());
        ++failed;
        break;
      }
      round_epoch_ms.push_back(r.ms);
      round_committed += r.committed;
    }
    h.CheckAll();
    if (check_error.empty() && !h.check_error().empty()) {
      check_error = "round " + std::to_string(round) + ", " + h.check_error();
    }
    double round_ms = 0;
    for (const double ms : round_epoch_ms) round_ms += ms;
    const double tps = static_cast<double>(round_committed) / (round_ms / 1e3);
    std::fprintf(stderr, "round %u: %.1f tx/s, epoch p50 %.3f ms, p90 %.3f ms\n",
                 round, tps, Percentile(round_epoch_ms, 50),
                 Percentile(round_epoch_ms, 90));
    committed += round_committed;
    round_tps.push_back(tps);
    epoch_ms.insert(epoch_ms.end(), round_epoch_ms.begin(),
                    round_epoch_ms.end());
    // The high-water mark after the first round: a fixed amount of work.
    if (round == 0) rss_mib = PeakRssMiB();
  }
  const bool correct = check_error.empty();
  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", check_error.c_str());
  const double n = static_cast<double>(std::max<std::size_t>(1, epoch_ms.size()));
  std::fprintf(stderr,
               "%s seed=%llu: %zu rounds, %zu measured epochs, setup %.3f s\n",
               spec.name, static_cast<unsigned long long>(seed),
               round_tps.size(), epoch_ms.size(), setup_s);

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"committed_tps", Percentile(round_tps, 50), "tx/s"},
        {"epoch_p50_ms", Percentile(epoch_ms, 50), "ms"},
        {"epoch_p90_ms", Percentile(epoch_ms, 90), "ms"},
        {"committed_per_epoch", static_cast<double>(committed) / n, "tx"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", rss_mib, "MiB"},
    };
  } else {
    const std::uint64_t first_epoch = spec.warmup_epochs + 1;
    const std::uint64_t last_epoch = spec.warmup_epochs + spec.round_epochs;
    metrics = LayerMetrics(sums, spans, Percentile(epoch_ms, 50), first_epoch,
                           last_epoch);
    const std::string path = out_dir + "/trace-" + spec.name + "-" +
                             std::to_string(seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  PrintResult(correct, std::max<std::size_t>(1, attempted), failed, metrics);
  return 0;
}

// ------------------------------------------------------------- selftest --

/// Runs `epochs` epochs; returns the per-epoch (state root, receipt root).
std::optional<std::vector<std::pair<Hash256, Hash256>>> ShortRun(
    const WorkloadSpec& spec, std::size_t workers, std::size_t epochs) {
  perfbench::SpanRecorder off(false);
  Harness h(spec, 7, workers, off);
  if (!h.Genesis().ok()) return std::nullopt;
  for (std::size_t i = 0; i < epochs; ++i) {
    if (!h.Step().error.empty()) return std::nullopt;
  }
  h.CheckAll();
  if (!h.check_error().empty()) {
    std::printf("  unexpected check failure: %s\n", h.check_error().c_str());
    return std::nullopt;
  }
  return h.roots();
}

bool Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// The first pair of committed transactions, in commit order, that a swap
/// must tell apart: an amalgamate from account a and a later transaction
/// that writes a's balances.
std::optional<std::pair<std::size_t, std::size_t>> NonCommutingPair(
    const std::vector<Transaction>& txs,
    const std::vector<std::uint32_t>& order) {
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TxPayload& p = txs[order[i]].payload;
    if (static_cast<SmallBankOp>(p.op) != SmallBankOp::kAmalgamate) continue;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const TxPayload& q = txs[order[j]].payload;
      if (static_cast<SmallBankOp>(q.op) == SmallBankOp::kGetBalance) continue;
      const auto accounts = perfbench::AccountsOf(q);
      if (std::find(accounts.begin(), accounts.end(), p.args[0]) !=
          accounts.end()) {
        return std::make_pair(i, j);
      }
    }
  }
  return std::nullopt;
}

int RunSelfTest() {
  bool ok = true;
  perfbench::SpanRecorder off(false);
  const std::size_t many = std::max<std::size_t>(2, MaxWorkers());

  // Determinism: 1 worker and N workers reach identical roots.
  for (const WorkloadSpec& spec : kWorkloads) {
    const auto one = ShortRun(spec, 1, 4);
    const auto n = ShortRun(spec, many, 4);
    ok &= Expect(one.has_value() && n.has_value() && *one == *n,
                 (std::string(spec.name) +
                  ": 1 and N workers give identical state and receipt roots, "
                  "every replay check passes")
                     .c_str());
  }

  // The checks can fail.
  {
    Harness h(kWorkloads[0], 11, MaxWorkers(), off);
    ok &= Expect(h.Genesis().ok(), "smallbank_hot genesis");
    for (int i = 0; i < 3; ++i) h.Step();
    const BalanceTable before = h.table();
    h.Step();
    ok &= Expect(h.check_error().empty(), "smallbank_hot: checks pass");
    ok &= Expect(h.last_report().aborted > 0,
                 "smallbank_hot: the last epoch has aborts");

    // A flipped balance.
    const Address cell = CheckingAddress(h.last_txs().front().payload.args[0]);
    const StateValue value = h.node().state().Get(cell);
    h.node().state().Set(cell, value + 1);
    ok &= Expect(!perfbench::CompareAll(h.node().state(), h.table()).empty(),
                 "flipped balance: replay check fails");
    ok &= Expect(!perfbench::CompareTouched(h.node().state(), h.table(),
                                            h.last_txs())
                      .empty(),
                 "flipped balance: per-epoch replay check fails");
    h.node().state().Set(cell, value);

    // Replaying the aborted transactions too (batch order, every tx).
    BalanceTable all = before;
    std::vector<std::uint32_t> every(h.last_txs().size());
    for (std::uint32_t i = 0; i < every.size(); ++i) every[i] = i;
    perfbench::Replay(all, h.last_txs(), every);
    ok &= Expect(!perfbench::CompareTouched(h.node().state(), all,
                                            h.last_txs())
                      .empty(),
                 "aborted txs counted as committed: replay check fails");

    // Receipt accounting against a report that is off by one.
    EpochReport wrong = h.last_report();
    wrong.committed += 1;
    std::vector<std::uint32_t> order;
    ok &= Expect(!perfbench::CommitOrderFromReceipts(h.node(), wrong,
                                                     h.last_ids(), &order)
                      .empty(),
                 "committed count off by one: receipt accounting fails");
    wrong = h.last_report();
    ok &= Expect(perfbench::CommitOrderFromReceipts(h.node(), wrong,
                                                    h.last_ids(), &order)
                     .empty() &&
                     order == h.last_order(),
                 "unaltered report: receipt accounting passes");
  }
  {
    // Swapping two conflicting committed transactions: under serial every
    // transaction commits in batch order, so the pair is always there.
    Harness h(kWorkloads[1], 11, MaxWorkers(), off);
    ok &= Expect(h.Genesis().ok(), "smallbank_hot_serial genesis");
    for (int i = 0; i < 3; ++i) h.Step();
    const BalanceTable before = h.table();
    h.Step();
    ok &= Expect(h.check_error().empty(), "smallbank_hot_serial: checks pass");
    const auto pair = NonCommutingPair(h.last_txs(), h.last_order());
    ok &= Expect(pair.has_value(), "found a non-commuting committed pair");
    if (pair) {
      std::vector<std::uint32_t> swapped = h.last_order();
      std::swap(swapped[pair->first], swapped[pair->second]);
      BalanceTable replay = before;
      perfbench::Replay(replay, h.last_txs(), swapped);
      ok &= Expect(!perfbench::CompareTouched(h.node().state(), replay,
                                              h.last_txs())
                        .empty(),
                   "swapped commit order: replay check fails");
    }
  }
  std::printf("%s\n", ok ? "selftest: all passed" : "selftest: FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--revision <id>] [--out <dir>]\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, revision = "unknown", out_dir = ".bench_out";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      traced = std::string_view(value) == "1";
    } else if (arg == "--revision") {
      revision = value;
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      Usage("unknown argument");
    }
  }
  if (selftest) return RunSelfTest();
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) {
      return RunBenchmark(spec, seed, seconds, traced, revision, out_dir);
    }
  }
  Usage("unknown workload");
}
