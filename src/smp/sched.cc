#include "smp/sched.hh"

#include "support/hash.hh"

namespace hev::smp
{

SchedResult
InterleavingScheduler::run(u64 max_steps)
{
    SchedResult result;
    result.stepsPerActor.assign(actors.size(), 0);
    u64 signature = fnvOffsetBasis;

    auto fold = [&signature](u64 value) {
        signature = fnvWordStep(signature, value);
    };

    std::vector<u64> runnable;
    while (result.steps < max_steps) {
        runnable.clear();
        for (u64 i = 0; i < actors.size(); ++i) {
            if (!actors[i].done)
                runnable.push_back(i);
        }
        if (runnable.empty()) {
            result.allDone = true;
            break;
        }
        const u64 pick = runnable[rng.below(runnable.size())];
        const StepOutcome outcome = actors[pick].step(result.steps);
        fold(pick);
        fold(u64(outcome));
        ++result.stepsPerActor[pick];
        ++result.steps;
        if (outcome == StepOutcome::Done)
            actors[pick].done = true;
    }
    if (!result.allDone) {
        bool all = true;
        for (const Actor &actor : actors)
            all = all && actor.done;
        result.allDone = all;
    }
    result.signature = signature;
    return result;
}

} // namespace hev::smp
