// The benchmark's own seeded SmallBank input generator.
//
// Kept apart from src/workload on purpose: the benchmark's inputs must depend
// only on (seed, workload parameters, epoch index), so a change to the
// program's workload code cannot shift what the benchmark measures.
//
// Each epoch is drawn from its own counter-based stream, so epoch k has the
// same transactions whatever happened before it (how many epochs a run
// reached, or whether it is a short self-test run).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "ledger/transaction.h"
#include "vm/smallbank.h"

namespace perfbench {

/// SplitMix64: tiny, seedable, and fully specified here.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, n); n > 0. The modulo bias is below 2^-40 for the
  /// account counts used here.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Zipfian over ranks [0, n) after Gray et al. (SIGMOD'94); skew 0 is
/// uniform. Rank r is account r, so the hot accounts are the low ids.
class Zipfian {
 public:
  Zipfian(std::uint64_t n, double skew) : n_(n), theta_(skew) {
    if (theta_ <= 0) return;
    zetan_ = Zeta(n_, theta_);
    const double zeta2 = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta_);
  }

  std::uint64_t Next(SplitMix64& rng) const {
    if (theta_ <= 0) return rng.Below(n_);
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  static double Zeta(std::uint64_t n, double theta) {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

struct SmallBankParams {
  std::uint64_t accounts = 10'000;
  double skew = 0.0;
  std::uint64_t max_amount = 100;  ///< amounts uniform in [1, max_amount]
};

class SmallBankGenerator {
 public:
  SmallBankGenerator(const SmallBankParams& params, std::uint64_t seed)
      : params_(params), seed_(seed), zipf_(params.accounts, params.skew) {}

  /// The `count` transactions of epoch `epoch` (0-based): the six ops drawn
  /// uniformly, accounts Zipfian, two-account ops on distinct accounts.
  /// Nonces are globally unique, so the mempool never sees a duplicate.
  std::vector<nezha::Transaction> Epoch(std::uint64_t epoch,
                                        std::size_t count) const {
    SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ULL ^
                   (epoch + 1) * 0xd1b54a32d192ed03ULL);
    std::vector<nezha::Transaction> txs(count);
    for (std::size_t i = 0; i < count; ++i) {
      nezha::Transaction& tx = txs[i];
      tx.nonce = epoch * count + i + 1;
      const auto op = static_cast<nezha::SmallBankOp>(
          rng.Below(nezha::kNumSmallBankOps));
      const std::uint64_t a = zipf_.Next(rng);
      const std::uint64_t amount = 1 + rng.Below(params_.max_amount);
      switch (op) {
        case nezha::SmallBankOp::kUpdateSavings:
        case nezha::SmallBankOp::kUpdateBalance:
        case nezha::SmallBankOp::kWriteCheck:
          tx.payload = nezha::MakeSmallBankCall(op, {a, amount});
          break;
        case nezha::SmallBankOp::kSendPayment:
          tx.payload = nezha::MakeSmallBankCall(op, {a, Other(rng, a), amount});
          break;
        case nezha::SmallBankOp::kAmalgamate:
          tx.payload = nezha::MakeSmallBankCall(op, {a, Other(rng, a)});
          break;
        case nezha::SmallBankOp::kGetBalance:
          tx.payload = nezha::MakeSmallBankCall(op, {a});
          break;
      }
    }
    return txs;
  }

 private:
  std::uint64_t Other(SplitMix64& rng, std::uint64_t a) const {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint64_t b = zipf_.Next(rng);
      if (b != a) return b;
    }
    return (a + 1) % params_.accounts;
  }

  SmallBankParams params_;
  std::uint64_t seed_;
  Zipfian zipf_;
};

}  // namespace perfbench
