#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <optional>

#include "pnc/calib/overlay.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/plan_cache.hpp"
#include "pnc/serve/queue.hpp"
#include "pnc/serve/types.hpp"
#include "pnc/stream/session.hpp"
#include "pnc/util/digest.hpp"
#include "pnc/util/workspace_pool.hpp"
#include "pnc/variation/variation.hpp"

namespace pnc::serve {

/// Everything needed to serve one registered model revision.
struct ModelConfig {
  std::shared_ptr<const infer::Engine> engine;
  std::uint64_t checkpoint_digest = 0;  ///< e.g. util::fnv1a64_file(path)
  variation::VariationSpec variation = variation::VariationSpec::none();
  std::uint64_t variation_seed = 0;     ///< one seed = one fabricated circuit
};

/// Lifecycle / readiness state, observable via Server::health().
enum class Health {
  kIdle,      ///< constructed, workers not yet started
  kReady,     ///< serving
  kDraining,  ///< stop() in progress: answering in-flight work, no admits
  kStopped,   ///< drained and joined
};

const char* health_name(Health health);

/// How a streaming session is opened: which registered model/overlay it
/// pins and how its sliding windows are cut. Model and overlay resolve
/// *once* at open_session time — the session is one physical device
/// observed continuously, so a hot reload mid-stream must not swap the
/// circuit under it.
struct SessionConfig {
  std::string model = "default";
  std::string overlay;  ///< per-device calibration; empty = base circuit
  stream::StreamConfig stream;
};

/// Summary returned when a session closes.
struct SessionInfo {
  std::uint64_t generation = 0;  ///< model generation the session pinned
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
};

/// Persistent in-process inference server over infer::Engine.
///
/// Requests enter a bounded MPSC CoalescingQueue; `shards` worker threads
/// pop dynamically coalesced batches (same model revision and series
/// length, up to max_batch or the batch deadline) and forward them through
/// plans leased from a shared LRU PlanCache. Dispatch order is (priority
/// class, earliest deadline, arrival); admission control is the queue
/// bound — a full queue sheds lowest-priority-first: an interactive
/// arrival displaces queued best-effort work (the victim gets its kShed
/// response) rather than being rejected, and requests still queued past
/// their deadline are shed with kDeadline at pop time instead of being
/// served late.
///
/// Failure domains: one batch is the unit of failure. A shard that throws
/// while leasing a plan or running the forward answers that batch's
/// requests with kError and keeps serving; a shard stuck on one batch
/// longer than watchdog_budget_ms is declared hung and replaced by a
/// fresh worker without dropping the queue (the hung thread still
/// delivers its batch's responses when it comes back, then exits).
/// stop() drains: every admitted request is answered before it returns.
///
/// Hot reload: load_model() on an existing id atomically swaps in a new
/// revision with a fresh generation. Requests resolve their model revision
/// at submit time and carry a shared_ptr to it, so in-flight requests
/// complete on the engine they were admitted under while new submissions
/// see the new one — no drain, no lock on the hot path's forward.
///
/// Determinism: plans are stamped once per revision from Rng(variation_seed)
/// at batch 1 and broadcast to each batch's row count (see
/// Engine::broadcast_batch), and the forward evaluates rows independently —
/// so a request's logits are bit-identical to a direct single-request
/// Engine call, for any shard count, arrival order, or coalesced shape.
///
/// Streaming sessions: open_session() pins a model revision + overlay and
/// a leased stamped plan, and submit()ed chunks (Request::session) feed a
/// stream::StreamSession whose recurrent state persists across chunks.
/// The batch key includes the session, so a coalesced batch never mixes
/// chunks of different sessions or sessions with stateless work; chunks
/// apply in per-session submission order across shards (applied_seq), are
/// exempt from displacement and deadlines (Urgency::sticky), and hot
/// reload leaves open sessions on the revision they pinned — they drain
/// and close on the old circuit while new sessions see the new one.
class Server {
 public:
  using Callback = std::function<void(Response)>;

  explicit Server(ServerConfig config = {});
  ~Server();  // stops and joins workers

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register (or hot-reload) a model under `id`. Returns the new
  /// generation. Thread-safe; may be called while serving.
  std::uint64_t load_model(const std::string& id, ModelConfig config);

  /// Register (or replace) a per-device calibration overlay under `id`.
  /// Requests opt in by naming it in Request::overlay; the overlay's
  /// identity check against the request's model (family, base checkpoint
  /// digest, variation seed) happens at submit time, so one overlay can be
  /// registered before or after the models it serves. The registry is
  /// bounded: past ServerConfig::overlay_capacity the least recently used
  /// overlay is evicted (stats().overlay_evictions) and later requests
  /// naming it fail cleanly as unknown. Returns the overlay digest (the
  /// plan-cache key component). Thread-safe.
  std::uint64_t register_overlay(const std::string& id,
                                 calib::Overlay overlay);

  /// Spawn the worker shards (and the watchdog, if configured). Idempotent.
  void start();

  /// Close the queue, drain remaining requests, join workers. Every
  /// admitted request is answered before this returns. Idempotent; called
  /// by the destructor.
  void stop();

  /// Lifecycle / readiness probes for front-ends.
  Health health() const { return health_.load(std::memory_order_acquire); }
  bool ready() const { return health() == Health::kReady; }

  /// Submit a request. Returns kOk if admitted (the callback fires later,
  /// possibly on a worker thread — it must be thread-safe and cheap) or
  /// kShed / kError, in which case the callback has already been invoked
  /// inline with the failure response. A request with a non-empty
  /// `session` field is a chunk of that streaming session: it is fed to
  /// the session's StreamSession in submission order and its response
  /// carries the windows/events the chunk completed.
  Status submit(Request req, Callback done);

  /// Blocking convenience: submit and wait for the response.
  Response infer(Request req);

  /// Open a streaming session: resolves (and pins) the model revision and
  /// overlay, leases a stamped plan from the plan cache for the session's
  /// lifetime, and creates its StreamSession. Returns kOk, or kError with
  /// `*error` set (unknown model/overlay, identity mismatch, duplicate
  /// name, capacity). Thread-safe.
  Status open_session(const std::string& name, const SessionConfig& config,
                      std::string* error = nullptr);

  /// Close a streaming session: new chunks are rejected, the name becomes
  /// reusable, and `*info` receives the session totals. Chunks already
  /// admitted still drain — they hold the session state alive and their
  /// responses are delivered as usual. Thread-safe.
  Status close_session(const std::string& name, SessionInfo* info = nullptr,
                       std::string* error = nullptr);

  std::size_t open_sessions() const;

  ServerStats stats() const;

  const ServerConfig& config() const { return config_; }

 private:
  /// Immutable snapshot of one model revision; requests pin it via
  /// shared_ptr so hot reload never invalidates in-flight work.
  struct ModelState {
    std::string id;
    std::shared_ptr<const infer::Engine> engine;
    variation::VariationSpec variation;
    std::uint64_t variation_seed = 0;
    std::uint64_t checkpoint_digest = 0;
    std::uint64_t generation = 0;
  };

  /// Immutable registered overlay: parsed deltas plus the digest of its
  /// serialized bytes. Requests pin it via shared_ptr like ModelState.
  struct OverlayState {
    std::string id;
    calib::Overlay overlay;
    std::uint64_t digest = 0;
  };

  /// One open streaming session. Worker shards pin the session's state
  /// through the shared_ptr in Pending; `mutex` serializes chunk
  /// application and `applied_seq`/`cv` enforce submission order across
  /// shards (chunks of one session may land in different batches). The
  /// leased plan and the entry shared_ptr keep the stamped circuit alive
  /// for the session's lifetime, so hot reload and plan-cache eviction
  /// never swap the device under an open stream.
  struct SessionState {
    std::string name;
    std::shared_ptr<const ModelState> model;
    std::shared_ptr<const OverlayState> overlay;  // null = base circuit
    std::shared_ptr<PlanCacheEntry> entry;
    std::optional<util::WorkspacePool<infer::Plan>::Lease> plan;
    std::unique_ptr<stream::StreamSession> stream;
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t next_seq = 0;     // guarded by mutex; assigned at submit
    std::uint64_t applied_seq = 0;  // guarded by mutex; advanced by shards
    bool closed = false;            // guarded by mutex
  };

  /// One admitted request riding the queue.
  struct Pending {
    Request req;
    Callback done;
    std::shared_ptr<const ModelState> model;
    std::shared_ptr<const OverlayState> overlay;  // null = base circuit
    std::shared_ptr<SessionState> session;        // null = stateless
    std::uint64_t session_seq = 0;
    std::chrono::steady_clock::time_point submitted;
    /// Absolute expiry (max() = none), fixed at submit from deadline_us.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  /// Coalescing key: same revision (pointer identity — a reload makes a
  /// new ModelState), same overlay (same physical device), same session
  /// (null for stateless work — so batches never mix session chunks with
  /// stateless requests or with other sessions), and same series length
  /// (rows of one forward tensor).
  struct BatchKey {
    const ModelState* model = nullptr;
    const OverlayState* overlay = nullptr;
    const SessionState* session = nullptr;
    std::size_t series_len = 0;
    bool operator==(const BatchKey&) const = default;
  };

  struct BatchKeyHash {
    std::size_t operator()(const BatchKey& k) const {
      std::uint64_t h = util::fnv1a64(&k.model, sizeof(k.model));
      h = util::fnv1a64(&k.overlay, sizeof(k.overlay), h);
      h = util::fnv1a64(&k.session, sizeof(k.session), h);
      h = util::fnv1a64(&k.series_len, sizeof(k.series_len), h);
      return static_cast<std::size_t>(h);
    }
  };

  using Queue = CoalescingQueue<Pending, BatchKey, BatchKeyHash>;

  /// One worker slot. The thread is replaced by the watchdog when hung;
  /// `epoch` tells a replaced thread to exit once it comes back, and
  /// `busy_since_ns` (-1 = idle) is the heartbeat the watchdog reads.
  struct Shard {
    std::thread thread;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::int64_t> busy_since_ns{-1};
  };

  void worker_loop(Shard* shard, std::uint64_t my_epoch);
  void watchdog_loop();
  void serve_batch(std::vector<Pending>& batch);
  void serve_session_batch(std::vector<Pending>& batch);
  Status submit_chunk(Pending pending);
  void fail(Pending& pending, Status status, const std::string& message);
  void deliver(Pending& pending, Response resp);

  ServerConfig config_;
  PlanCache plan_cache_;
  Queue queue_;

  mutable std::mutex models_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ModelState>> models_;
  /// Bounded overlay registry: map entries carry their LRU position;
  /// overlay_lru_ front = most recently registered or used.
  struct OverlayEntry {
    std::shared_ptr<const OverlayState> state;
    std::list<std::string>::iterator lru;
  };
  std::unordered_map<std::string, OverlayEntry> overlays_;
  std::list<std::string> overlay_lru_;
  /// Open streaming sessions by name (bounded by session_capacity; close
  /// removes the entry while in-flight chunks keep the state alive).
  std::unordered_map<std::string, std::shared_ptr<SessionState>> sessions_;
  std::uint64_t next_generation_ = 0;

  std::mutex lifecycle_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Health> health_{Health::kIdle};
  bool started_ = false;

  /// Threads displaced by a watchdog restart; joined at stop() so a hung
  /// worker that eventually returns is never leaked or detached.
  std::mutex shards_mutex_;
  std::vector<std::thread> retired_;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace pnc::serve
