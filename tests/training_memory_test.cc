// Training's memory shape: no double-valued copy of a client's records
// exists anywhere in training (DESIGN.md §16.4). This executable replaces
// the global operator new with one that records the largest single request
// made while a measurement is open, so it runs as its own test binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/fl/fedavg.h"

namespace {

std::atomic<bool> g_measuring{false};
std::atomic<size_t> g_largest{0};

void NoteRequest(size_t size) {
  if (!g_measuring.load(std::memory_order_relaxed)) return;
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Every form a replacement must cover to pair with the deletes below
// (the nothrow ones too: under ASan, its own would not pair with free).
// Out of line, so that no inlined copy pairs a new-expression's pointer
// with the free call (GCC's -Wmismatched-new-delete would see one).
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  NoteRequest(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace ctfl {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

/// The largest single operator new request `body` makes, on any thread.
template <typename Body>
size_t LargestAllocation(Body body) {
  g_largest.store(0);
  g_measuring.store(true);
  body();
  g_measuring.store(false);
  return g_largest.load();
}

/// Three adult clients of 1,200, 700 and 500 records.
std::vector<Dataset> Clients() {
  const Dataset all = MakeBenchmark("adult", 2400, 17).value();
  std::vector<Dataset> clients;
  size_t begin = 0;
  for (size_t size : {1200, 700, 500}) {
    std::vector<size_t> rows(size);
    std::iota(rows.begin(), rows.end(), begin);
    clients.push_back(all.Subset(rows));
    begin += size;
  }
  return clients;
}

TEST(TrainingMemoryTest, DenseEncodingOfTheLargestClientIsCounted) {
  // The bound below means something: the largest client's dense encoding
  // is one request above it.
  const std::vector<Dataset> clients = Clients();
  const LogicalNet net(clients[0].schema(), LogicalNetConfig{});
  const size_t largest =
      LargestAllocation([&] { (void)net.EncodeBatch(clients[0]); });
  EXPECT_GE(largest, clients[0].size() * net.encoded_size() * sizeof(double));
  EXPECT_GE(largest, kMiB + kMiB / 5);
}

TEST(TrainingMemoryTest, FederatedTrainingMakesNoLargeAllocation) {
  const std::vector<Dataset> clients = Clients();
  FedAvgConfig config;
  config.rounds = 2;
  config.local_epochs = 1;
  config.num_threads = 2;
  const size_t largest = LargestAllocation([&] {
    ASSERT_TRUE(TrainFederated(clients[0].schema(), LogicalNetConfig{},
                               clients, config)
                    .ok());
  });
  EXPECT_LT(largest, kMiB);
}

TEST(TrainingMemoryTest, CentralTrainingMakesNoLargeAllocation) {
  const std::vector<Dataset> clients = Clients();
  TrainConfig config;
  config.epochs = 1;
  config.num_threads = 2;
  const size_t largest = LargestAllocation([&] {
    (void)TrainCentral(clients[0].schema(), LogicalNetConfig{}, clients[0],
                       config);
  });
  EXPECT_LT(largest, kMiB);
}

}  // namespace
}  // namespace ctfl
