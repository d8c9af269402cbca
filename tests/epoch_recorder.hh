/**
 * @file
 * Test helper: a sim::EpochObserver that records, for every epoch of
 * a live run, what the run applied - the epoch start, the V/f state
 * each domain ran at, and the instructions each domain committed.
 * Determinism tests compare two runs' recordings epoch by epoch; the
 * epoch-CSV tests check the writer's rows against one.
 */

#ifndef PCSTALL_TESTS_EPOCH_RECORDER_HH
#define PCSTALL_TESTS_EPOCH_RECORDER_HH

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dvfs/controller.hh"
#include "sim/experiment.hh"

namespace pcstall::test
{

/** One epoch of a live run, as applied. */
struct AppliedEpoch
{
    Tick start = 0;
    /** V/f state each domain ran at during the epoch. */
    std::vector<std::size_t> state;
    /** Instructions each domain committed during the epoch. */
    std::vector<double> committed;

    bool operator==(const AppliedEpoch &) const = default;
};

/**
 * Records one run of @p driver. Every domain starts at the nominal
 * state; the states applied at an epoch boundary are the ones the
 * domains run at during the following epoch.
 */
class EpochRecorder : public sim::EpochObserver
{
  public:
    explicit EpochRecorder(const sim::ExperimentDriver &driver)
        : domains(driver.config().gpu.numCus,
                  driver.config().cusPerDomain),
          running(domains.numDomains(), driver.nominalState())
    {}

    void
    onEpoch(const sim::EpochCapture &epoch) override
    {
        AppliedEpoch e;
        e.start = epoch.start;
        e.state = running;
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            e.committed.push_back(dvfs::sumOverDomain(
                domains, d, [&](std::uint32_t cu) {
                    return static_cast<double>(
                        epoch.record.cus[cu].committed);
                }));
        }
        epochs.push_back(std::move(e));
        if (!epoch.done)
            running = epoch.appliedStates;
    }

    std::vector<AppliedEpoch> epochs;

  private:
    dvfs::DomainMap domains;
    std::vector<std::size_t> running;
};

/** Epoch-by-epoch equality of two non-empty recordings (exact). */
inline void
expectSameEpochs(const std::vector<AppliedEpoch> &a,
                 const std::vector<AppliedEpoch> &b)
{
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("epoch " + std::to_string(i));
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].state, b[i].state);
        EXPECT_EQ(a[i].committed, b[i].committed);
    }
}

} // namespace pcstall::test

#endif // PCSTALL_TESTS_EPOCH_RECORDER_HH
