// The benchmark's independent correctness check.
//
// The benchmark keeps its own balance table from genesis and replays each
// epoch's committed transactions on it with its own implementation of the
// six SmallBank operations, in the commit order the node's receipts claim
// (receipt seq, then batch position). The node's StateDB must then hold the
// same balances. Nothing here calls into the program's execution,
// scheduling or commit code; only the receipts and the state are read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ledger/transaction.h"
#include "node/full_node.h"
#include "node/receipts.h"
#include "storage/state_db.h"
#include "vm/smallbank.h"

namespace perfbench {

/// Savings and checking balance per account, in the program's address
/// layout (account a: savings cell 2a, checking cell 2a+1).
class BalanceTable {
 public:
  BalanceTable(std::uint64_t accounts, std::int64_t initial)
      : cells_(accounts * 2, initial) {}

  std::int64_t& savings(std::uint64_t a) { return cells_[a * 2]; }
  std::int64_t& checking(std::uint64_t a) { return cells_[a * 2 + 1]; }
  std::int64_t cell(std::uint64_t address) const { return cells_[address]; }
  std::size_t cells() const { return cells_.size(); }

  /// SmallBank semantics, written out independently of src/vm.
  void Apply(const nezha::TxPayload& p) {
    using Op = nezha::SmallBankOp;
    const auto arg = [&](std::size_t i) {
      return static_cast<std::int64_t>(p.args[i]);
    };
    switch (static_cast<Op>(p.op)) {
      case Op::kUpdateSavings:
        savings(p.args[0]) += arg(1);
        break;
      case Op::kUpdateBalance:
        checking(p.args[0]) += arg(1);
        break;
      case Op::kSendPayment:
        checking(p.args[0]) -= arg(2);
        checking(p.args[1]) += arg(2);
        break;
      case Op::kWriteCheck: {
        const std::uint64_t a = p.args[0];
        const bool overdraft = savings(a) + checking(a) < arg(1);
        checking(a) -= arg(1) + (overdraft ? 1 : 0);
        break;
      }
      case Op::kAmalgamate: {
        const std::uint64_t from = p.args[0];
        const std::int64_t total = savings(from) + checking(from);
        checking(p.args[1]) += total;
        savings(from) = 0;
        checking(from) = 0;
        break;
      }
      case Op::kGetBalance:
        break;
    }
  }

 private:
  std::vector<std::int64_t> cells_;
};

/// The accounts a SmallBank call names: two for sendPayment and
/// amalgamate, one for the others (whose second argument is an amount).
inline std::span<const std::uint64_t> AccountsOf(const nezha::TxPayload& p) {
  using Op = nezha::SmallBankOp;
  const auto op = static_cast<Op>(p.op);
  return {p.args.data(),
          op == Op::kSendPayment || op == Op::kAmalgamate ? 2u : 1u};
}

/// Reads every transaction's receipt and derives the commit order the node
/// claims: batch positions of the committed transactions sorted by
/// (seq, position). Fails unless every transaction has exactly one receipt
/// for this epoch, each committed or aborted by the schedule, and the counts
/// equal the report's.
inline std::string CommitOrderFromReceipts(
    const nezha::FullNode& node, const nezha::EpochReport& report,
    std::span<const nezha::Hash256> ids, std::vector<std::uint32_t>* order) {
  std::vector<std::pair<nezha::SeqNum, std::uint32_t>> committed;
  std::size_t aborted = 0;
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    nezha::Result<nezha::Receipt> r = node.receipts().Get(ids[i]);
    if (!r.ok()) return "tx " + std::to_string(i) + " has no receipt";
    if (r->tx_id != ids[i] || r->epoch != report.epoch) {
      return "tx " + std::to_string(i) + " receipt names another tx or epoch";
    }
    if (r->outcome == nezha::TxOutcome::kCommitted) {
      if (r->seq == nezha::kUnassignedSeq) {
        return "committed tx " + std::to_string(i) + " has no seq";
      }
      committed.emplace_back(r->seq, i);
    } else if (r->outcome == nezha::TxOutcome::kAbortedBySchedule) {
      ++aborted;
    } else {
      return "tx " + std::to_string(i) + " reverted at execution";
    }
  }
  if (committed.size() != report.committed || aborted != report.aborted ||
      ids.size() != report.txs) {
    return "receipts count " + std::to_string(committed.size()) +
           " committed / " + std::to_string(aborted) +
           " aborted, report says " + std::to_string(report.committed) +
           " / " + std::to_string(report.aborted);
  }
  std::sort(committed.begin(), committed.end());
  order->clear();
  order->reserve(committed.size());
  for (const auto& [seq, pos] : committed) order->push_back(pos);
  return {};
}

inline void Replay(BalanceTable& table,
                   std::span<const nezha::Transaction> txs,
                   std::span<const std::uint32_t> order) {
  for (const std::uint32_t pos : order) table.Apply(txs[pos].payload);
}

/// Compares the node's balances with the table for every account the
/// transactions name.
inline std::string CompareTouched(const nezha::StateDB& state,
                                  const BalanceTable& table,
                                  std::span<const nezha::Transaction> txs) {
  for (const nezha::Transaction& tx : txs) {
    for (const std::uint64_t a : AccountsOf(tx.payload)) {
      for (const std::uint64_t cell : {a * 2, a * 2 + 1}) {
        const std::int64_t got = state.Get(nezha::Address(cell));
        if (got != table.cell(cell)) {
          return "cell " + std::to_string(cell) + ": node " +
                 std::to_string(got) + ", replay " +
                 std::to_string(table.cell(cell));
        }
      }
    }
  }
  return {};
}

inline std::string CompareAll(const nezha::StateDB& state,
                              const BalanceTable& table) {
  for (std::uint64_t cell = 0; cell < table.cells(); ++cell) {
    const std::int64_t got = state.Get(nezha::Address(cell));
    if (got != table.cell(cell)) {
      return "cell " + std::to_string(cell) + ": node " + std::to_string(got) +
             ", replay " + std::to_string(table.cell(cell));
    }
  }
  if (state.Size() != table.cells()) {
    return "node holds " + std::to_string(state.Size()) + " cells, replay " +
           std::to_string(table.cells());
  }
  return {};
}

}  // namespace perfbench
