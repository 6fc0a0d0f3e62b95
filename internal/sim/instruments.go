package sim

// The environment's instruments: counts a test or benchmark reads to price
// a simulation or to check that processes ended, never the model itself.

// Live reports the number of processes that have been spawned and have not
// yet finished.
func (e *Env) Live() int { return e.live }

// Dispatched reports how many events the scheduler has popped since the
// environment was created (lazily-cancelled ones included): the host-side
// work a simulation costs, for events-per-operation benchmarks.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// Switches reports how many times the run token was handed to a process
// parked on another coroutine — a yield to the trampoline in Run and its
// next into the target, two runtime coroutine switches. Fused self-resumes
// (a parking process that the next event resumes keeps running) and callback
// events cost none and are not counted.
func (e *Env) Switches() uint64 { return e.switches }

// Spawns reports how many processes Go has started since the environment
// was created.
func (e *Env) Spawns() uint64 { return e.spawns }
