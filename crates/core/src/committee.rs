//! Builds every host of a deployment at once, in
//! [`AddressBook`](crate::AddressBook) node order.

use crate::config::NarwhalConfig;
use crate::consensus::DagConsensus;
use crate::messages::NarwhalMsg;
use crate::node::NodeBuilder;
use nt_crypto::KeyPair;
use nt_network::Actor;
use nt_simnet::ActorFactory;
use nt_types::{Committee, WorkerId};

/// One factory per host. A factory builds its host from scratch on every
/// call, which is what crash–restart scenarios need: the simulator rebuilds
/// a restarted host from its factory, so whatever `node` captured (a
/// durable store) survives while every other piece of state is rebuilt.
///
/// `rule` makes each primary's consensus instance; all validators of one
/// deployment must start from identical rule state. `node` finishes the
/// [`NodeBuilder`] of each of validator `v`'s hosts (a store, an execution
/// engine); workers ignore what only primaries use.
pub fn committee_factories<C, R, N>(
    committee: &Committee,
    keypairs: &[KeyPair],
    config: &NarwhalConfig,
    workers: u32,
    rule: R,
    node: N,
) -> Vec<ActorFactory<NarwhalMsg<C::Ext>>>
where
    C: DagConsensus + 'static,
    R: Fn(&Committee) -> C + Clone + Send + 'static,
    N: Fn(u32, NodeBuilder) -> NodeBuilder + Clone + Send + 'static,
{
    let builder = {
        let (committee, config) = (committee.clone(), config.clone());
        move |v: u32| {
            let builder = NodeBuilder::new(committee.clone(), v).config(config.clone());
            node(v, builder.workers_per_validator(workers))
        }
    };
    let validators = 0..committee.size() as u32;
    let mut factories: Vec<ActorFactory<NarwhalMsg<C::Ext>>> = Vec::new();
    for v in validators.clone() {
        let (committee, keypair) = (committee.clone(), keypairs[v as usize].clone());
        let (builder, rule) = (builder.clone(), rule.clone());
        factories.push(Box::new(move || {
            let builder = builder(v).keypair(keypair.clone());
            Box::new(builder.build_primary(rule(&committee)))
        }));
    }
    for v in validators {
        for w in 0..workers {
            let builder = builder.clone();
            factories.push(Box::new(move || {
                Box::new(builder(v).build_worker::<C::Ext>(WorkerId(w)))
            }));
        }
    }
    factories
}

/// The actors of a deployment without persistence: every
/// [`committee_factories`] host, built once.
pub fn committee_actors<C: DagConsensus + 'static>(
    committee: &Committee,
    keypairs: &[KeyPair],
    config: &NarwhalConfig,
    workers: u32,
    rule: impl Fn(&Committee) -> C + Clone + Send + 'static,
) -> Vec<Box<dyn Actor<Message = NarwhalMsg<C::Ext>>>> {
    committee_factories(committee, keypairs, config, workers, rule, |_, b| b)
        .into_iter()
        .map(|mut build| build())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressBook, NoConsensus};
    use nt_crypto::Scheme;

    #[test]
    fn actor_count_matches_layout() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let config = NarwhalConfig::with_load(1000.0);
        let actors = committee_actors(&committee, &kps, &config, 2, |_| NoConsensus);
        assert_eq!(actors.len(), AddressBook::new(4, 2).total_hosts());
    }
}
