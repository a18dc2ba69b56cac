#include "src/benchdb/derby.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace treebench {

namespace {

/// Per-object attribute draws, independent of creation order so every
/// clustering strategy materializes the *same logical database*.
struct PatientGen {
  std::string name;
  int32_t age;
  char sex;
  int32_t random_integer;
  int32_t num;
};

PatientGen GenPatient(uint64_t seed, uint64_t m, uint64_t num_providers,
                      int64_t num_domain) {
  Lrand48 g(seed * 2654435761ull + m * 2 + 1);
  PatientGen p;
  p.name = g.NextString(16);
  p.age = static_cast<int32_t>(g.Uniform(100));
  p.sex = g.Uniform(2) == 0 ? 'm' : 'f';
  p.random_integer =
      static_cast<int32_t>(g.Uniform(std::max<uint64_t>(1, num_providers))) +
      1;
  p.num = static_cast<int32_t>(g.Uniform(static_cast<uint64_t>(num_domain)));
  return p;
}

struct ProviderGen {
  std::string name, address, specialty, office;
};

ProviderGen GenProvider(uint64_t seed, uint64_t i) {
  Lrand48 g(seed * 40503ull + i * 2 + 7777777ull);
  ProviderGen p;
  p.name = g.NextString(16);
  p.address = g.NextString(16);
  p.specialty = g.NextString(16);
  p.office = g.NextString(16);
  return p;
}

uint64_t DistinctPages(const std::vector<Rid>& rids) {
  std::unordered_set<uint64_t> pages;
  pages.reserve(rids.size() / 16 + 1);
  for (const Rid& r : rids) pages.insert(PageKey(r.file_id, r.page_id));
  return pages.size();
}

}  // namespace

Result<std::unique_ptr<DerbyDb>> BuildDerby(const DerbyConfig& config) {
  if (config.avg_children == 0 || config.providers == 0) {
    return Status::InvalidArgument("providers and avg_children must be > 0");
  }
  uint64_t num_providers = std::max<uint64_t>(1, config.providers /
                                                     config.scale);
  uint64_t num_patients = num_providers * config.avg_children;

  DatabaseOptions db_opts = config.db;
  if (config.scale > 1) {
    // Scale the machine with the data so cache-to-data ratios (and hence
    // every crossover) survive.
    db_opts.cost.ram_bytes /= config.scale;
    db_opts.cost.reserved_bytes /= config.scale;
    db_opts.cache.client_bytes /= config.scale;
    db_opts.cache.server_bytes /= config.scale;
  }
  // Creating an index needs two live client pages: BTreeIndex's constructor
  // allocates the meta page, then the root, and writes the root's page id
  // through the meta page pointer it took first. A one-page client cache
  // evicts (and checksums) the meta page in between, so its next fill
  // reports a false corruption.
  if (db_opts.cache.client_pages() < 2) {
    return Status::InvalidArgument(
        "scale " + std::to_string(config.scale) + " leaves a " +
        std::to_string(db_opts.cache.client_bytes) +
        "-byte client cache; Derby needs at least two pages");
  }

  auto derby = std::make_unique<DerbyDb>();
  derby->db = std::make_unique<Database>(db_opts);
  Database& db = *derby->db;
  db.set_clustering(config.clustering);

  DerbyMeta& meta = derby->meta;
  meta.num_providers = num_providers;
  meta.num_patients = num_patients;

  // ---- Schema (paper Figure 1) ----
  TB_ASSIGN_OR_RETURN(
      meta.provider_class,
      db.CreateClass("Provider",
                     {{"name", AttrType::kString},
                      {"upin", AttrType::kInt32},
                      {"address", AttrType::kString},
                      {"specialty", AttrType::kString},
                      {"office", AttrType::kString},
                      {"clients", AttrType::kRefSet, "Patient",
                       "primary_care_provider"}}));
  TB_ASSIGN_OR_RETURN(
      meta.patient_class,
      db.CreateClass("Patient",
                     {{"name", AttrType::kString},
                      {"mrn", AttrType::kInt32},
                      {"age", AttrType::kInt32},
                      {"sex", AttrType::kChar},
                      {"random_integer", AttrType::kInt32},
                      {"num", AttrType::kInt32},
                      {"primary_care_provider", AttrType::kRef, "Provider",
                       "clients"}}));

  TB_RETURN_IF_ERROR(db.CreateCollection("Providers").status());
  TB_RETURN_IF_ERROR(db.CreateCollection("Patients").status());

  // ---- Files per physical organization (paper Figure 2) ----
  uint16_t provider_file, patient_file;
  switch (config.clustering) {
    case ClusteringStrategy::kClassClustered:
    case ClusteringStrategy::kAssociationOrdered:
      provider_file = db.CreateFile("providers");
      patient_file = db.CreateFile("patients");
      break;
    case ClusteringStrategy::kRandomized:
    case ClusteringStrategy::kComposition:
      provider_file = db.CreateFile("objects");
      patient_file = provider_file;
      break;
  }
  uint16_t overflow_file = db.CreateFile("clients_overflow");

  // ---- Index clustering flags per organization ----
  bool upin_clustered =
      config.clustering != ClusteringStrategy::kRandomized;
  bool mrn_clustered =
      config.clustering == ClusteringStrategy::kClassClustered;

  // ---- Patient->provider assignment (the paper's randomized lrand48
  // join), shared by all organizations ----
  Lrand48 assign_rng(config.seed ^ 0xA55Aull);
  std::vector<uint32_t> owner(num_patients);
  std::vector<std::vector<uint32_t>> groups(num_providers);
  for (uint64_t m = 0; m < num_patients; ++m) {
    owner[m] = static_cast<uint32_t>(assign_rng.Uniform(num_providers));
    groups[owner[m]].push_back(static_cast<uint32_t>(m));
  }

  bool preallocate =
      config.index_timing != DerbyConfig::IndexTiming::kAfterLoadRelocate;

  // Predeclared-incremental: register the (empty) indexes before loading so
  // Loader::CreateObject maintains them per insertion.
  auto declare_indexes = [&](IndexBuildMode mode) -> Status {
    TB_RETURN_IF_ERROR(db.CreateIndex("idx_upin", "Providers", "Provider",
                                      "upin", mode, upin_clustered)
                           .status());
    TB_RETURN_IF_ERROR(db.CreateIndex("idx_mrn", "Patients", "Patient",
                                      "mrn", mode, mrn_clustered)
                           .status());
    if (config.create_num_index) {
      TB_RETURN_IF_ERROR(db.CreateIndex("idx_num", "Patients", "Patient",
                                        "num", mode, /*clustered=*/false)
                             .status());
    }
    return Status::OK();
  };
  if (config.index_timing ==
      DerbyConfig::IndexTiming::kPredeclaredIncremental) {
    TB_RETURN_IF_ERROR(declare_indexes(IndexBuildMode::kPredeclared));
  }

  Loader loader(&db, config.load);

  std::vector<Rid> provider_rids(num_providers);
  std::vector<Rid> patient_rids(num_patients);

  auto create_provider = [&](uint64_t i,
                             const std::vector<Rid>& clients) -> Status {
    ProviderGen g = GenProvider(config.seed, i);
    CreateOptions opts;
    opts.file_id = provider_file;
    opts.preallocate_index_header = preallocate;
    opts.set_overflow_file = overflow_file;
    ObjectData data{g.name,     static_cast<int32_t>(i), g.address,
                    g.specialty, g.office,               clients};
    TB_ASSIGN_OR_RETURN(provider_rids[i],
                        loader.CreateObject(meta.provider_class, data, opts,
                                            "Providers"));
    return Status::OK();
  };

  auto create_patient = [&](uint64_t m, const Rid& pcp) -> Status {
    PatientGen g =
        GenPatient(config.seed, m, num_providers, meta.num_domain);
    CreateOptions opts;
    opts.file_id = patient_file;
    opts.preallocate_index_header = preallocate;
    opts.set_overflow_file = overflow_file;
    ObjectData data{g.name, static_cast<int32_t>(m),  g.age, g.sex,
                    g.random_integer, g.num, pcp};
    TB_ASSIGN_OR_RETURN(patient_rids[m],
                        loader.CreateObject(meta.patient_class, data, opts,
                                            "Patients"));
    return Status::OK();
  };

  // Sets each provider's clients from groups[i], once every patient exists.
  auto fill_clients_sets = [&]() -> Status {
    for (uint64_t i = 0; i < num_providers; ++i) {
      if (groups[i].empty()) continue;
      std::vector<Rid> clients;
      clients.reserve(groups[i].size());
      for (uint32_t m : groups[i]) clients.push_back(patient_rids[m]);
      TB_RETURN_IF_ERROR(db.store().SetRefSet(provider_rids[i],
                                              meta.p_clients, clients,
                                              overflow_file));
    }
    return Status::OK();
  };

  switch (config.clustering) {
    case ClusteringStrategy::kClassClustered: {
      // All providers (creation order = upin), then all patients (creation
      // order = mrn, assignment randomized), then the clients sets — which
      // therefore land *after* the providers in the file, "not always right
      // next to them" (paper Figure 2 caveat).
      for (uint64_t i = 0; i < num_providers; ++i) {
        TB_RETURN_IF_ERROR(create_provider(i, {}));
      }
      for (uint64_t m = 0; m < num_patients; ++m) {
        TB_RETURN_IF_ERROR(create_patient(m, provider_rids[owner[m]]));
      }
      TB_RETURN_IF_ERROR(fill_clients_sets());
      break;
    }
    case ClusteringStrategy::kAssociationOrdered: {
      // Separate files, but patients stored in their parents' order (the
      // Section 5.3 alternative after Carey & Lapis).
      for (uint64_t i = 0; i < num_providers; ++i) {
        TB_RETURN_IF_ERROR(create_provider(i, {}));
      }
      for (uint64_t i = 0; i < num_providers; ++i) {
        for (uint32_t m : groups[i]) {
          TB_RETURN_IF_ERROR(create_patient(m, provider_rids[i]));
        }
      }
      TB_RETURN_IF_ERROR(fill_clients_sets());
      break;
    }
    case ClusteringStrategy::kComposition: {
      // Provider, its clients set, then its patients — the 1-n placement of
      // Figure 2 (right). A correctly-sized placeholder set keeps the set
      // record adjacent to its owner; it is filled in in place once the
      // children exist.
      for (uint64_t i = 0; i < num_providers; ++i) {
        std::vector<Rid> placeholder(groups[i].size(), kNilRid);
        TB_RETURN_IF_ERROR(create_provider(i, placeholder));
        std::vector<Rid> clients;
        clients.reserve(groups[i].size());
        for (uint32_t m : groups[i]) {
          TB_RETURN_IF_ERROR(create_patient(m, provider_rids[i]));
          clients.push_back(patient_rids[m]);
        }
        if (!clients.empty()) {
          TB_RETURN_IF_ERROR(db.store().SetRefSet(provider_rids[i],
                                                  meta.p_clients, clients,
                                                  overflow_file));
        }
      }
      break;
    }
    case ClusteringStrategy::kRandomized: {
      // All objects in one file, in shuffled order (Figure 2, middle).
      // Patients may precede their provider, so references are patched in
      // a second pass.
      std::vector<uint64_t> order;
      order.reserve(num_providers + num_patients);
      for (uint64_t i = 0; i < num_providers; ++i) order.push_back(i);
      for (uint64_t m = 0; m < num_patients; ++m) {
        order.push_back(num_providers + m);
      }
      Lrand48 shuffle_rng(config.seed ^ 0xC3C3ull);
      shuffle_rng.Shuffle(&order);
      for (uint64_t token : order) {
        if (token < num_providers) {
          TB_RETURN_IF_ERROR(create_provider(token, {}));
        } else {
          TB_RETURN_IF_ERROR(create_patient(token - num_providers, kNilRid));
        }
      }
      for (uint64_t m = 0; m < num_patients; ++m) {
        TB_RETURN_IF_ERROR(db.store().SetRef(patient_rids[m], meta.c_pcp,
                                             provider_rids[owner[m]]));
      }
      TB_RETURN_IF_ERROR(fill_clients_sets());
      break;
    }
  }

  TB_RETURN_IF_ERROR(loader.Commit());

  // ---- Indexes (bulk / after-load paths) ----
  if (config.index_timing != DerbyConfig::IndexTiming::kPredeclaredIncremental) {
    // The relocate path is the O2-faithful one: per-entry inserts. The
    // fast path bulk-builds (same final state, cheap to generate).
    TB_RETURN_IF_ERROR(declare_indexes(
        config.index_timing == DerbyConfig::IndexTiming::kAfterLoadRelocate
            ? IndexBuildMode::kAfterLoadIncremental
            : IndexBuildMode::kAfterLoad));
    if (config.index_timing ==
        DerbyConfig::IndexTiming::kAfterLoadRelocate) {
      // Relocations changed rids; refresh our in-memory copies from the
      // repaired extents for the stats below.
      PersistentCollection* prov = db.GetCollection("Providers").value();
      uint64_t i = 0;
      auto pit = prov->Scan();
      for (; pit.Valid(); pit.Next()) {
        provider_rids[i++] = pit.rid();
      }
      TB_RETURN_IF_ERROR(pit.status());
      PersistentCollection* pat = db.GetCollection("Patients").value();
      uint64_t m = 0;
      auto cit = pat->Scan();
      for (; cit.Valid(); cit.Next()) {
        patient_rids[m++] = cit.rid();
      }
      TB_RETURN_IF_ERROR(cit.status());
    }
  }

  // ---- Optimizer statistics (analytic; no extra scan needed) ----
  CollectionStats prov_stats;
  prov_stats.count = num_providers;
  prov_stats.object_pages = DistinctPages(provider_rids);
  prov_stats.int_attr_range[meta.p_upin] = {
      0, static_cast<int64_t>(num_providers) - 1};
  prov_stats.avg_fanout[meta.p_clients] =
      static_cast<double>(num_patients) / static_cast<double>(num_providers);
  prov_stats.scan_clustered = upin_clustered;
  db.SetStats("Providers", std::move(prov_stats));

  CollectionStats pat_stats;
  pat_stats.count = num_patients;
  pat_stats.object_pages = DistinctPages(patient_rids);
  pat_stats.int_attr_range[meta.c_mrn] = {
      0, static_cast<int64_t>(num_patients) - 1};
  pat_stats.int_attr_range[meta.c_num] = {0, meta.num_domain - 1};
  pat_stats.int_attr_range[meta.c_age] = {0, 99};
  pat_stats.scan_clustered = mrn_clustered;
  db.SetStats("Patients", std::move(pat_stats));

  derby->load_seconds = db.sim().elapsed_seconds();
  return derby;
}

}  // namespace treebench
