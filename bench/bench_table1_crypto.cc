// Table 1 reproduction: cost of individual crypto operations.
//
//   Paper (2.2 GHz Xeon):          AES ctr 47 ns | Paillier enc 5.1 ms |
//   ASHE enc/dec 12-24 ns | plain add 1 ns | Paillier add 3.8 µs |
//   Paillier dec 3.4 ms
//
// Paillier numbers here use a portable bignum (no GMP) and a configurable
// modulus (SEABED_BENCH_PAILLIER_BITS, default 1024 = the paper's 2048-bit
// ciphertexts); absolute values differ from the paper but the orders of
// magnitude — ASHE ~ns, Paillier ~ms — are the point of the table.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/crypto/ashe.h"
#include "src/crypto/ore.h"
#include "src/crypto/paillier.h"

namespace seabed {
namespace {

void BM_AesCounterMode(benchmark::State& state) {
  const Aes128 aes(AesKey::FromSeed(1));
  uint64_t words[2];
  uint64_t counter = 0;
  for (auto _ : state) {
    aes.EncryptCounter(counter++, words);
    benchmark::DoNotOptimize(words);
  }
  state.SetLabel(aes.using_hardware() ? "AES-NI" : "portable");
}
BENCHMARK(BM_AesCounterMode);

void BM_AesCounterModePortable(benchmark::State& state) {
  const Aes128 aes(AesKey::FromSeed(1), /*force_portable=*/true);
  uint8_t block[16] = {};
  uint8_t out[16];
  for (auto _ : state) {
    aes.EncryptBlock(block, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AesCounterModePortable);

void BM_AsheEncrypt(benchmark::State& state) {
  const Ashe ashe(AesKey::FromSeed(2));
  uint64_t id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ashe.EncryptCell(12345, id++));
  }
}
BENCHMARK(BM_AsheEncrypt);

// The upload path: a column of cells through Ashe::EncryptCells (about half
// an AES block per cell). items_per_second is the per-cell rate.
void BM_AsheEncryptColumn(benchmark::State& state) {
  const Ashe ashe(AesKey::FromSeed(2));
  constexpr size_t kCells = 1024;
  std::vector<uint64_t> m(kCells, 12345);
  std::vector<uint64_t> out(kCells);
  uint64_t first_id = 1;
  for (auto _ : state) {
    ashe.EncryptCells(m.data(), kCells, first_id, out.data());
    first_id += kCells;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kCells));
  state.SetLabel(std::string(ashe.using_hardware() ? "AES-NI" : "portable") + ", " +
                 std::to_string(kCells) + " cells per iteration");
}
BENCHMARK(BM_AsheEncryptColumn);

// One ORE encryption (64 PRF blocks through the multi-block AES kernel).
void BM_OreEncrypt(benchmark::State& state) {
  const Ore ore(AesKey::FromSeed(5));
  uint64_t m = 0x0123456789abcdefULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ore.Encrypt(m));
    m += 0x9e3779b97f4a7c15ULL;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::string(Aes128::HardwareAvailable() ? "AES-NI" : "portable") +
                 ", per value");
}
BENCHMARK(BM_OreEncrypt);

void BM_AsheDecryptCell(benchmark::State& state) {
  const Ashe ashe(AesKey::FromSeed(3));
  uint64_t id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ashe.DecryptCell(987654, id++));
  }
}
BENCHMARK(BM_AsheDecryptCell);

void BM_AsheDecryptRangeSum(benchmark::State& state) {
  // Decrypting an aggregate over a contiguous range: 2 PRF calls total.
  const Ashe ashe(AesKey::FromSeed(4));
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  AsheCiphertext ct;
  for (uint64_t id = 1; id <= n; ++id) {
    ct.value += ashe.EncryptCell(id, id);
  }
  ct.ids = IdSet::FromRange(1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ashe.Decrypt(ct));
  }
  state.SetLabel("range length " + std::to_string(n));
}
BENCHMARK(BM_AsheDecryptRangeSum)->Arg(1000)->Arg(1000000);

void BM_PlainAdd(benchmark::State& state) {
  uint64_t acc = 0;
  uint64_t x = 123;
  for (auto _ : state) {
    acc += x;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PlainAdd);

void BM_AsheAdd(benchmark::State& state) {
  // The homomorphic ⊕ on the server: native add + ID bookkeeping.
  AsheCiphertext acc;
  uint64_t id = 1;
  for (auto _ : state) {
    acc.value += 17;
    acc.ids.Add(id++);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AsheAdd);

struct PaillierFixture {
  PaillierFixture()
      : rng(9),
        paillier(Paillier::GenerateKey(
            rng, static_cast<int>(EnvU64("SEABED_BENCH_PAILLIER_BITS", 1024)))) {}
  Rng rng;
  Paillier paillier;
};

PaillierFixture& GetPaillier() {
  static PaillierFixture fixture;
  return fixture;
}

void BM_PaillierEncrypt(benchmark::State& state) {
  auto& f = GetPaillier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.paillier.Encrypt(BigNum(12345), f.rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Unit(benchmark::kMicrosecond);

void BM_PaillierAdd(benchmark::State& state) {
  auto& f = GetPaillier();
  const BigNum c1 = f.paillier.Encrypt(BigNum(1), f.rng);
  BigNum acc = f.paillier.Encrypt(BigNum(0), f.rng);
  for (auto _ : state) {
    acc = f.paillier.Add(acc, c1);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PaillierAdd)->Unit(benchmark::kMicrosecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  auto& f = GetPaillier();
  const BigNum ct = f.paillier.Encrypt(BigNum(424242), f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.paillier.Decrypt(ct));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace seabed

BENCHMARK_MAIN();
