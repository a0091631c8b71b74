#ifndef PNM_SERVE_REGISTRY_HPP
#define PNM_SERVE_REGISTRY_HPP

/// \file registry.hpp
/// \brief The multi-model registry: named, independently hot-swappable
///        served designs behind one server.
///
/// The registry serves N *named* models behind one server, sharing the
/// port, the reactors, and the predict-worker pool.  The empty name means
/// the default (first-registered) model.  Each name owns its own
/// monotonically increasing version sequence, so a (name, version) pair
/// identifies one immutable design for the lifetime of the server — that
/// is the unit the loadgen verifies responses against, and it is what
/// makes "swapping A never disturbs B" machine-checkable: B's version tag
/// cannot move unless B itself was swapped.
///
/// Concurrency model: one mutex (`mu_`) guards every entry.  The
/// registered name set is fixed after serving starts (register_model is
/// for setup; it is still mutex-safe).  Reads take that mutex once and
/// return a `shared_ptr<const ServedModel>` snapshot; swap loads and
/// validates the new file *outside* the lock, then flips one entry's
/// pointer under it.  A swap to an unreadable or corrupt file is rejected
/// whole and only bumps that model's `swaps_failed`.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/serve/metrics.hpp"

namespace pnm::serve {

/// An immutable loaded front design plus its serve-side identity.
struct ServedModel {
  QuantizedMlp mlp;
  std::uint32_t version = 0;  ///< monotonically increasing per swap, per name
  std::string source_path;    ///< file it was loaded from ("" = in-memory)
  std::string name;           ///< registry name ("" until registered)
};

/// Thread-safe name -> served-design store with per-model hot-swap.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `model` under `name`.  The first registration becomes the
  /// default model (the one the empty name routes to); its `version` is
  /// forced to 1 if left 0.
  ///
  /// \param name   nonempty, at most kMaxModelName bytes, no '=' (the CLI
  ///               uses NAME=FILE syntax).
  /// \param model  the design to serve; must hold at least one layer.
  /// \param error  receives the rejection reason on failure (may be null).
  /// \return true when registered; false on a duplicate or invalid name
  ///         or an empty model (the registry is unchanged).
  bool register_model(const std::string& name, ServedModel model,
                      std::string* error = nullptr);

  /// The live design snapshot for `name` ("" = default model).
  /// \return the snapshot, or nullptr for an unknown name (or an empty
  ///         registry).
  [[nodiscard]] std::shared_ptr<const ServedModel> get(std::string_view name) const;

  /// Loads `path` and atomically flips the named model to it, bumping
  /// only that model's version.
  ///
  /// \param name   registered model name ("" = default model).
  /// \param path   a pnm-model v1 file.
  /// \param error  receives the failure reason (may be null).
  /// \return true on success; false leaves the old design serving (an
  ///         unknown name counts as a failure but is attributed to no
  ///         model).
  bool swap(std::string_view name, const std::string& path, std::string* error);

  /// Adds `n` served responses to the named model's counter (workers call
  /// this once per batch route, not per response).
  void count_responses(std::string_view name, std::uint64_t n);

  /// Per-model counters in registration order (default model first).
  [[nodiscard]] std::vector<ModelStats> stats() const;

  /// Registered names in registration order (default model first).
  [[nodiscard]] std::vector<std::string> names() const;

  /// The default model's name ("" when the registry is empty).
  [[nodiscard]] std::string default_name() const;

  /// Registered model count.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<const ServedModel> model;  ///< guarded by mu_
    std::uint32_t next_version = 2;            ///< guarded by mu_
    std::uint64_t responses = 0;               ///< guarded by mu_
    std::uint64_t swaps_ok = 0;                ///< guarded by mu_
    std::uint64_t swaps_failed = 0;            ///< guarded by mu_
  };

  /// Entry lookup; mu_ must be held.  nullptr for an unknown name.
  Entry* find_locked(std::string_view name);
  const Entry* find_locked(std::string_view name) const;

  mutable std::mutex mu_;
  // Registration order, [0] = default.  Entries are never removed, and
  // unique_ptr keeps them address-stable across vector growth.
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_REGISTRY_HPP
