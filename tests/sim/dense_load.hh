/**
 * @file
 * A dense event-kernel load: a fixed population of tokens, each
 * re-arming itself 1 tick to 5 bucket widths ahead when it fires.
 * At 1600 tokens about 640 keys land in every calendar bucket, while
 * at most six buckets hold keys at once: the shape of a large
 * parallel-engine domain queue, where a bucket's load is far above
 * what a drained bucket keeps and few buckets are live at a time.
 *
 * The load is templated on the queue, so the same program runs on
 * EventQueue and on the legacy binary heap. Delays come from one
 * generator drawn in fire order, so two queues with the same fire
 * order see the same program; a divergence skews everything after
 * it and shows in the digest.
 */

#ifndef GS_TESTS_SIM_DENSE_LOAD_HH
#define GS_TESTS_SIM_DENSE_LOAD_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace gs::test
{

template <typename Q>
struct DenseLoad
{
    static constexpr std::uint32_t tokens = 1600;
    static constexpr Tick maxDelay = 5 * EventQueue::bucketWidth;

    Q q;
    Rng rng{0xde75e10adULL};
    std::uint64_t digest = 0; ///< fire order over (token, tick)
    std::uint64_t fires = 0;
    /** Fires per bucket-wide window of simulated time, by window. */
    std::vector<std::uint32_t> perWindow;

    /** Arm every token; windows are counted up to @p laps ring laps. */
    explicit DenseLoad(int laps = 3)
        : perWindow(static_cast<std::size_t>(laps) *
                    EventQueue::bucketCount)
    {
        for (std::uint32_t id = 0; id < tokens; ++id)
            arm(id);
    }

    DenseLoad(const DenseLoad &) = delete;
    DenseLoad &operator=(const DenseLoad &) = delete;

    /** Schedule token @p id's next firing. */
    void
    arm(std::uint32_t id)
    {
        const Tick delay = 1 + rng.below(maxDelay);
        if constexpr (std::is_same_v<Q, EventQueue>) {
            ckpt::EventDesc d;
            d.u = id;
            q.schedule(delay, d, [this, id] { fire(id); });
        } else {
            q.schedule(delay, [this, id] { fire(id); });
        }
    }

    void
    fire(std::uint32_t id)
    {
        const Tick now = q.now();
        digest = (digest ^ (std::uint64_t(id) << 40 ^ now)) *
                 0x100000001b3ULL;
        fires += 1;
        const std::size_t w =
            static_cast<std::size_t>(now >> EventQueue::bucketBits);
        if (w < perWindow.size())
            perWindow[w] += 1;
        arm(id);
    }
};

} // namespace gs::test

#endif // GS_TESTS_SIM_DENSE_LOAD_HH
