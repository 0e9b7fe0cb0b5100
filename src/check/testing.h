// Env-gated gtest integration for RdmaCheck: the checker CI mode.
//
// A test binary that calls RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER() at
// namespace scope runs every test under a fresh RdmaCheck whenever the
// RDMADL_CHECK environment variable is set (to anything but "0" or empty).
// At the end of each test the checker is finalized; any diagnostic — a
// protocol violation during the test or a leak at teardown — fails that
// test with the full report. With the variable unset the listener is inert
// and the binary behaves exactly as before, so the same executable serves
// both the plain suites and `ctest -L check` / `scripts/check.sh --sweep`.
//
// Header-only and gtest-dependent by design: only test binaries include it,
// the rdmadl_check library itself stays gtest-free.
#ifndef RDMADL_SRC_CHECK_TESTING_H_
#define RDMADL_SRC_CHECK_TESTING_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string_view>

#include "src/check/rdma_check.h"

namespace rdmadl {
namespace check {

inline bool CheckEnabledFromEnv() {
  const char* env = std::getenv("RDMADL_CHECK");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

class ProtocolCheckListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestStart(const ::testing::TestInfo& /*info*/) override {
    if (CheckEnabledFromEnv()) checker_ = std::make_unique<RdmaCheck>();
  }

  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (checker_ == nullptr) return;
    const auto& diags = checker_->Finalize();
    EXPECT_TRUE(diags.empty()) << "RdmaCheck found " << diags.size()
                               << " protocol violation(s) in " << info.test_suite_name()
                               << "." << info.name() << ":\n"
                               << checker_->Report();
    checker_.reset();
  }

 private:
  std::unique_ptr<RdmaCheck> checker_;
};

inline int RegisterProtocolCheckListener() {
  ::testing::UnitTest::GetInstance()->listeners().Append(new ProtocolCheckListener);
  return 0;
}

}  // namespace check
}  // namespace rdmadl

// Registers the listener at static-initialization time (before main runs
// InitGoogleTest, which is fine: the listener list outlives both).
#define RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER()                   \
  static const int rdmadl_protocol_check_listener_registered =      \
      ::rdmadl::check::RegisterProtocolCheckListener()

#endif  // RDMADL_SRC_CHECK_TESTING_H_
