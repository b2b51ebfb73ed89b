//! Factored layer search: the hardware-invariant compute part of every
//! candidate evaluated **once**, then cheaply re-priced per memory/DRAM
//! configuration.
//!
//! Sweep candidates that differ only along the SRAM-size / DRAM-bandwidth
//! axes share identical compute-side cycles and compute energy
//! ([`bitwave_accel::FactoredLayerCost`]).  This module lifts that split to
//! the network-search level: [`factor_network`] walks a network once per
//! `(lanes, SU menu, bandwidth, bit-class)` group — enumerating candidates
//! via the shared space cache and factoring each one — and the returned
//! [`FactoredNetworkSearch`] re-prices the whole portfolio entry against
//! each concrete `(SRAM sizes, DRAM axes)` point in a fraction of the full
//! evaluation time.  Winner and front selection run through the exact same
//! [`crate::search`] code path, so a re-priced
//! [`NetworkSearch`] is **bit-identical** (and byte-identical once
//! serialized) to `DseEngine::search_network_sequential` over the same
//! inputs.
//!
//! Each factored shape memoizes its priced selections in a [`MemoryTier`]
//! keyed by the point's memory/DRAM price-key digest: LRU-evicted past 128
//! configurations and single-flight, so worker threads re-pricing one
//! shape against the same configuration price it once.

use crate::cost::{EvaluatedMapping, MappingCost};
use crate::error::{DseError, Result};
use crate::search::{
    layer_search_key, select_from_objectives, LayerSearchResult, NetworkSearch, SearchedLayer,
};
use crate::space::SearchSpace;
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{
    factor_layer_with_mapping, EnergyModel, FactoredLayerCost, LayerSparsityProfile,
};
use bitwave_core::digest::Digest;
use bitwave_dataflow::activity::TemporalMapping;
use bitwave_dataflow::dram::DramSpec;
use bitwave_dataflow::mapping::{select_spatial_unrolling, MappingDecision};
use bitwave_dataflow::su::SpatialUnrolling;
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::layer::{LayerKind, LayerSpec, LoopDims};
use bitwave_dnn::models::NetworkSpec;
use bitwave_store::{MemoryTier, MemoryTierConfig};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static REPRICED: AtomicU64 = AtomicU64::new(0);

/// Number of layer searches answered by re-pricing an already-factored
/// compute part instead of a full per-candidate evaluation (the
/// `bitwave_sweep_factored_repriced_total` metric).
pub fn factored_repriced_total() -> u64 {
    REPRICED.load(Ordering::Relaxed)
}

/// One mapping (a candidate or the heuristic baseline) with its
/// memory-invariant compute part already evaluated.
#[derive(Debug, Clone)]
pub struct FactoredMapping {
    label: String,
    su: SpatialUnrolling,
    temporal: Option<TemporalMapping>,
    utilization: f64,
    effective_macs_per_cycle: f64,
    factored: FactoredLayerCost,
}

impl FactoredMapping {
    /// Factors `decision` for `layer`: everything independent of the memory
    /// hierarchy and the DRAM axes is computed here, once.
    pub fn of_decision(
        spec: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
        energy: &EnergyModel,
        decision: &MappingDecision,
    ) -> Self {
        Self {
            label: decision.label.clone(),
            su: decision.su,
            temporal: decision.temporal,
            utilization: decision.utilization,
            effective_macs_per_cycle: decision.effective_macs_per_cycle,
            factored: factor_layer_with_mapping(spec, layer, decision, profile, energy),
        }
    }

    /// The cheap per-point half: prices the mapping against a concrete
    /// memory hierarchy and the DRAM axes of `spec`.  Bit-for-bit equal to
    /// [`crate::cost::evaluate_decision`]'s cost over the same inputs.
    pub fn reprice(
        &self,
        spec: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
    ) -> MappingCost {
        let repriced = self.factored.reprice(spec, memory, energy);
        let energy_pj = repriced.energy.total_pj();
        MappingCost {
            compute_cycles: repriced.compute_cycles,
            dram_cycles: repriced.dram_cycles,
            total_cycles: repriced.total_cycles,
            energy_pj,
            edp: repriced.total_cycles * energy_pj,
        }
    }

    fn evaluated(&self, cost: MappingCost) -> EvaluatedMapping {
        EvaluatedMapping {
            label: self.label.clone(),
            su: self.su,
            temporal: self.temporal,
            utilization: self.utilization,
            effective_macs_per_cycle: self.effective_macs_per_cycle,
            cost,
        }
    }
}

/// The exact inputs the priced selection reads beyond the factored compute
/// part: re-pricing ignores every other accelerator field (sync
/// granularity, menus, sparsity flags live in the compute part), so points
/// that differ only in those share one priced selection.  No field varies
/// by layer shape, so [`FactoredNetworkSearch::reprice`] digests it once
/// per point and every shape's memo looks up the same digest.
#[derive(Serialize)]
struct PriceKey {
    memory: MemoryHierarchy,
    energy: EnergyModel,
    dram: DramSpec,
    dram_bandwidth_bits: usize,
    space: SearchSpace,
}

/// One memory configuration's fully priced selection for a whole shape:
/// every candidate repriced, the winner/front Pareto selection run, and
/// the survivors materialised.  Everything here is invariant across sweep
/// points sharing the [`PriceKey`], so the per-point residual is the
/// per-shape memo-key digest and a few clones.
#[derive(Debug)]
struct PricedCosts {
    heuristic: EvaluatedMapping,
    winner: EvaluatedMapping,
    front: Vec<EvaluatedMapping>,
    front_total: usize,
}

/// One distinct layer shape with its heuristic baseline and every
/// enumerated candidate factored.
#[derive(Debug)]
pub struct FactoredLayerSearch {
    dims: LoopDims,
    kind: LayerKind,
    profile_hex: String,
    heuristic: FactoredMapping,
    candidates: Vec<FactoredMapping>,
    /// Priced-cost memo keyed by the per-point [`PriceKey`] digest: sweep
    /// points that differ only in re-pricing-invariant axes (e.g. sync
    /// granularity) share one priced selection per memory configuration.
    /// The cap sits far above any real sweep's memory sub-grid; it only
    /// bounds adversarial churn.
    priced: MemoryTier<PricedCosts>,
}

impl FactoredLayerSearch {
    /// Prices every mapping of this shape against one memory/DRAM
    /// configuration and runs the winner/front Pareto selection, memoized
    /// under `price_key`, the digest of the point's [`PriceKey`].
    fn priced(
        &self,
        accel: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
        space: &SearchSpace,
        price_key: Digest,
    ) -> Arc<PricedCosts> {
        self.priced.get_or_make(price_key, || {
            let costs: Vec<MappingCost> = self
                .candidates
                .iter()
                .map(|m| m.reprice(accel, memory, energy))
                .collect();
            let objectives: Vec<[f64; 4]> = costs
                .iter()
                .zip(&self.candidates)
                .map(|(c, m)| [c.total_cycles, c.energy_pj, c.edp, m.utilization])
                .collect();
            let (winner, front_idx, front_total) =
                select_from_objectives(&objectives, space.max_front);
            // Only the winner and the capped front are materialised into
            // full `EvaluatedMapping`s — the bulk never clone.
            PricedCosts {
                heuristic: self
                    .heuristic
                    .evaluated(self.heuristic.reprice(accel, memory, energy)),
                winner: self.candidates[winner].evaluated(costs[winner]),
                front: front_idx
                    .into_iter()
                    .map(|i| self.candidates[i].evaluated(costs[i]))
                    .collect(),
                front_total,
            }
        })
    }

    /// Re-prices every candidate and re-runs the winner/front selection —
    /// through the same code path as the memoized engine, so the outcome
    /// (including the memoization key recorded in the result) is
    /// bit-identical to a full [`crate::DseEngine::search_layer`].
    /// `price_key` is the point's [`PriceKey`] digest.
    ///
    /// # Errors
    ///
    /// [`DseError::Core`] when the memo key fails to digest.
    fn reprice(
        &self,
        accel: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
        space: &SearchSpace,
        price_key: Digest,
    ) -> Result<(EvaluatedMapping, LayerSearchResult)> {
        let key = layer_search_key(
            accel,
            self.dims,
            self.kind,
            self.profile_hex.clone(),
            memory,
            energy,
            space,
        )?;
        let priced = self.priced(accel, memory, energy, space, price_key);
        REPRICED.fetch_add(1, Ordering::Relaxed);
        Ok((
            priced.heuristic.clone(),
            LayerSearchResult {
                key: key.to_hex(),
                candidates: self.candidates.len(),
                winner: priced.winner.clone(),
                front: priced.front.clone(),
                front_total: priced.front_total,
            },
        ))
    }
}

/// A whole network's search space, factored: each distinct
/// `(dims, kind, profile)` shape holds its factored candidates once and
/// every layer of that shape shares them.
#[derive(Debug)]
pub struct FactoredNetworkSearch {
    /// `(layer name, index into distinct)` in execution order.
    layers: Vec<(String, usize)>,
    distinct: Vec<FactoredLayerSearch>,
}

impl FactoredNetworkSearch {
    /// Number of distinct layer shapes held (the factoring workload).
    pub fn distinct_shapes(&self) -> usize {
        self.distinct.len()
    }

    /// Re-prices every distinct shape once against `(memory, DRAM axes)`
    /// and assembles the aggregated [`NetworkSearch`] — bit-identical to
    /// [`crate::DseEngine::search_network_sequential`] over the same
    /// accelerator, space, memory and energy tables.  The [`PriceKey`] is
    /// digested once here and shared by every shape.
    ///
    /// # Errors
    ///
    /// [`DseError::Core`] when the price key or a memo key fails to digest.
    pub fn reprice(
        &self,
        accel: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
        space: &SearchSpace,
    ) -> Result<NetworkSearch> {
        let price_key = Digest::of_value(&PriceKey {
            memory: *memory,
            energy: *energy,
            dram: accel.dram,
            dram_bandwidth_bits: accel.dram_bandwidth_bits,
            space: space.clone(),
        })?;
        let priced: Vec<(EvaluatedMapping, LayerSearchResult)> = self
            .distinct
            .iter()
            .map(|d| d.reprice(accel, memory, energy, space, price_key))
            .collect::<Result<_>>()?;
        let layers: Vec<SearchedLayer> = self
            .layers
            .iter()
            .map(|(name, i)| {
                let (heuristic, search) = &priced[*i];
                SearchedLayer {
                    layer: name.clone(),
                    heuristic: heuristic.clone(),
                    search: search.clone(),
                }
            })
            .collect();
        Ok(NetworkSearch::aggregate(accel.label.clone(), layers))
    }
}

/// Factors a whole network for `accel`: per distinct layer shape, the
/// heuristic baseline and every candidate from the shared space cache get
/// their compute parts evaluated once.  The expensive half of a sweep
/// point's evaluation — reusable across every point that shares this
/// accelerator's compute-side configuration.
///
/// # Errors
///
/// [`DseError::MisalignedProfiles`] unless `profiles` aligns with
/// `network.layers`; otherwise the first per-layer error, in the same order
/// the memoized engine reports them ([`DseError::Mapping`] from the
/// heuristic pick, [`DseError::Core`] from the profile digest,
/// [`DseError::EmptySpace`] from an empty enumeration).
pub fn factor_network(
    accel: &AcceleratorSpec,
    network: &NetworkSpec,
    profiles: &[LayerSparsityProfile],
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Result<FactoredNetworkSearch> {
    if network.layers.len() != profiles.len() {
        return Err(DseError::MisalignedProfiles {
            layers: network.layers.len(),
            profiles: profiles.len(),
        });
    }
    let mut layers = Vec::with_capacity(network.layers.len());
    let mut distinct: Vec<FactoredLayerSearch> = Vec::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for (layer, profile) in network.layers.iter().zip(profiles) {
        // Same error order as the memoized engine's `search_one`: the
        // heuristic SU pick (which validates the layer dims) comes first.
        let decision = select_spatial_unrolling(layer, &accel.su_set)?;
        let profile_hex = Digest::of_value(profile)?.to_hex();
        let dedup = format!("{:?}|{:?}|{profile_hex}", layer.dims, layer.kind);
        let slot = match index_of.get(&dedup) {
            Some(&i) => i,
            None => {
                let candidates = space.enumerate_shared(accel, layer);
                if candidates.is_empty() {
                    return Err(DseError::EmptySpace {
                        layer: layer.name.clone(),
                    });
                }
                let heuristic =
                    FactoredMapping::of_decision(accel, layer, profile, energy, &decision);
                let factored: Vec<FactoredMapping> = candidates
                    .iter()
                    .map(|c| {
                        // Mirrors `evaluate_candidate`: the layer name stays
                        // empty so identically shaped layers share the slot.
                        let utilization = c.su.utilization_for(layer);
                        let effective = c.su.parallelism() as f64 * utilization;
                        let d = MappingDecision {
                            layer: String::new(),
                            su: c.su,
                            label: c.label.clone(),
                            temporal: Some(c.temporal),
                            utilization,
                            effective_macs_per_cycle: effective,
                        };
                        FactoredMapping::of_decision(accel, layer, profile, energy, &d)
                    })
                    .collect();
                let i = distinct.len();
                distinct.push(FactoredLayerSearch {
                    dims: layer.dims,
                    kind: layer.kind,
                    profile_hex,
                    heuristic,
                    candidates: factored,
                    priced: MemoryTier::new(MemoryTierConfig::entries(128)),
                });
                index_of.insert(dedup, i);
                i
            }
        };
        layers.push((layer.name.clone(), slot));
    }
    Ok(FactoredNetworkSearch { layers, distinct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DseEngine;
    use bitwave_accel::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dnn::models::resnet18;
    use bitwave_dnn::weights::generate_layer_sample;

    fn profiles_for(net: &NetworkSpec) -> Vec<LayerSparsityProfile> {
        net.layers
            .iter()
            .map(|l| {
                let w = generate_layer_sample(l, 11, 4_000);
                LayerSparsityProfile::from_weights(
                    &w,
                    l.expected_activation_sparsity(),
                    GroupSize::G16,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn reprice_reproduces_the_full_search_byte_for_byte() {
        let mut net = resnet18();
        net.layers.truncate(6);
        let profiles = profiles_for(&net);
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let energy = EnergyModel::finfet_16nm();
        let space = SearchSpace::default();
        let factored = factor_network(&accel, &net, &profiles, &energy, &space).unwrap();
        assert!(factored.distinct_shapes() <= net.layers.len());
        // Two memory configurations spanning the fits/does-not-fit regimes
        // share one factoring.
        for memory in [
            MemoryHierarchy::bitwave_default(),
            MemoryHierarchy {
                weight_sram_bytes: 16 * 1024,
                activation_sram_bytes: 16 * 1024,
                ..MemoryHierarchy::bitwave_default()
            },
        ] {
            let engine = DseEngine::new(memory, energy).with_space(space.clone());
            let full = engine
                .search_network_sequential(&accel, &net, &profiles)
                .unwrap();
            let repriced = factored.reprice(&accel, &memory, &energy, &space).unwrap();
            assert_eq!(repriced, full);
            assert_eq!(
                serde_json::to_string(&repriced).unwrap(),
                serde_json::to_string(&full).unwrap(),
                "factored reprice must serialize byte-identically"
            );
        }
        assert!(factored_repriced_total() >= 2);
    }

    #[test]
    fn misaligned_profiles_are_the_same_typed_error() {
        let net = resnet18();
        let err = factor_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &[],
            &EnergyModel::finfet_16nm(),
            &SearchSpace::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DseError::MisalignedProfiles { .. }));
    }
}
