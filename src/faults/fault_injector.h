/**
 * @file
 * FaultInjector: deterministic execution of a FaultPlan on the
 * discrete-event simulator.
 *
 * The injector owns fault *scheduling* and the device health state
 * machine; the *consequences* (dropping in-flight batches, excluding
 * dead capacity from the next MILP solve, metrics attribution) are
 * delegated through FaultHooks so this library depends only on the
 * simulator and cluster layers — the ServingSystem wires the hooks to
 * its workers, controller and metrics collector.
 *
 * Determinism: scripted events fire at their exact times; the random
 * schedule is materialized up front from the plan seed (one
 * independent stream per device), so two runs with the same plan and
 * horizon produce byte-identical fault sequences regardless of what
 * else the simulation does.
 */

#ifndef PROTEUS_FAULTS_FAULT_INJECTOR_H_
#define PROTEUS_FAULTS_FAULT_INJECTOR_H_

#include <functional>
#include <vector>

#include "cluster/device.h"
#include "common/types.h"
#include "faults/fault_plan.h"
#include "sim/simulator.h"

namespace proteus {

/** Consequence callbacks the owning system installs. */
struct FaultHooks {
    /** Device died: fail its worker (drop/requeue work, unload). */
    std::function<void(DeviceId)> on_crash;
    /** Device is back (Recovering): worker may host again. */
    std::function<void(DeviceId)> on_recovery;
    /** Transient stall: slow the worker by @p factor for @p window. */
    std::function<void(DeviceId, double, Duration)> on_stall;
    /** The device's current/next model load must fail. */
    std::function<void(DeviceId)> on_load_fail;
};

/**
 * Materializes a random fault schedule over [0, horizon). Exposed for
 * the determinism property tests.
 */
std::vector<FaultEvent> generateFaultSchedule(
    const RandomFaultConfig& config, std::size_t num_devices,
    Time horizon, std::uint64_t seed);

/** Schedules a FaultPlan's events and drives the health machine. */
class FaultInjector
{
  public:
    /**
     * @param health borrowed tracker, one entry per device; the
     *        injector performs all Up/Down/Recovering transitions
     *        except Recovering -> Up (the worker reports readiness).
     */
    FaultInjector(Simulator* sim, DeviceHealthTracker* health,
                  FaultHooks hooks, FaultPlan plan);

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /**
     * Materialize the random schedule over [0, @p horizon), merge it
     * with the scripted events and schedule everything. Call once,
     * before Simulator::run().
     */
    void arm(Time horizon);

    /** @return the full materialized schedule (valid after arm()). */
    const std::vector<FaultEvent>& schedule() const { return schedule_; }

    /** @return events actually applied so far (no-ops excluded). */
    int injected() const { return injected_; }

  private:
    void fire(const FaultEvent& event);

    Simulator* sim_;
    DeviceHealthTracker* health_;
    FaultHooks hooks_;
    FaultPlan plan_;

    std::vector<FaultEvent> schedule_;
    bool armed_ = false;
    int injected_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_FAULTS_FAULT_INJECTOR_H_
