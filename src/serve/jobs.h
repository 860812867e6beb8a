// The serve daemon's real job runners: lock / attack / sweep over .bench
// files, mirroring the CLI subcommands but wired into a JobContext — the
// job's cancel token and deadline reach the attack engine (so the watchdog
// rarely has to escalate), trace records stream to the submitting client,
// and sweep jobs run the CLI's sweep (attacks/sweep.h) inside an embedded
// SweepSession whose durable JSONL checkpoint is what makes daemon crash
// recovery resume instead of redo. Each checkpoint record is also streamed
// as the job's "cell" event.
#pragma once

#include "serve/scheduler.h"

namespace fl::serve {

// The production runner handed to Scheduler. Throws propagate to the
// scheduler's per-job fault isolation (terminal "failed").
JobRunner default_job_runner();

}  // namespace fl::serve
