#pragma once

namespace minisc {

class Process;

/// Where a process graph "node" (in the sense of the segmentation methodology)
/// occurs: channel accesses and timed waits. Process entry/exit are reported
/// separately through ProcessHook.
enum class NodeKind {
  kChannelRead,
  kChannelWrite,
  kTimedWait,
};

const char* to_string(NodeKind k);

/// Callback interface the performance-estimation library installs on the
/// simulator. The kernel itself has no notion of timing estimation; it only
/// reports, for the *running* process:
///
///  - node_reached: a channel access / timed wait is about to execute. The
///    hook may suspend the process without hooks (Simulator::raw_wait,
///    Simulator::park) — this is how segment delays are back-annotated
///    *before* the communication.
///  - node_done: the access completed (for a blocking read, after the data
///    arrived). The hook typically starts the next segment here.
///  - process_started / process_finished: segment bookkeeping at the entry
///    and exit nodes of the process graph.
///
/// All calls happen on the coroutine stack of the affected process, inside
/// the evaluate phase.
class KernelHook {
 public:
  virtual ~KernelHook() = default;

  virtual void process_started(Process& p) = 0;
  virtual void process_finished(Process& p) = 0;
  /// Called at every scheduler dispatch, before `p` continues execution.
  /// Lets the estimation library point its per-operation accounting at the
  /// process about to run. Default: no-op.
  virtual void process_resumed(Process& p) { (void)p; }
  /// `label` identifies the channel (its name) or is "wait" for timed waits.
  virtual void node_reached(Process& p, NodeKind kind, const char* label) = 0;
  virtual void node_done(Process& p, NodeKind kind, const char* label) = 0;
};

}  // namespace minisc
