//! Randomized tests of the static analysis over *randomly generated*
//! DELPs, driven by the in-tree seeded PRNG.
//!
//! The generator builds chain programs of the shape
//!
//! ```text
//! ri e_i(@N, X1..Xm) :- e_{i-1}(@L, X1..Xm), s_i(@L, X_{j in S_i}.., N).
//! ```
//!
//! where each rule joins a random subset `S_i` of the event attributes
//! against its slow table. For this family the equivalence keys have a
//! closed form — `{0} ∪ (∪_i S_i)` — giving an independent oracle for
//! `GetEquiKeys`. The runtime property then checks Theorem 1 end to end:
//! events agreeing on the oracle keys produce equivalent trees; events
//! differing on a key attribute produce non-equivalent trees.

use dpc::netsim::topo;
use dpc::prelude::*;
use dpc_common::{Rng, SeededRng};

const CASES: u64 = 48;

/// A generated chain-DELP description.
#[derive(Debug, Clone)]
struct ChainProgram {
    /// Number of rules (chain length).
    rules: usize,
    /// Non-location event attributes.
    arity: usize,
    /// Joined attribute subset per rule (1-based attribute indices).
    joins: Vec<Vec<usize>>,
}

impl ChainProgram {
    fn random(rng: &mut SeededRng) -> ChainProgram {
        let rules = rng.random_range(1..5u64) as usize;
        let arity = rng.random_range(1..4u64) as usize;
        let joins = (0..rules)
            .map(|_| {
                // A random subset of {1..=arity}.
                (1..=arity).filter(|_| rng.random_bool(0.5)).collect()
            })
            .collect();
        ChainProgram {
            rules,
            arity,
            joins,
        }
    }

    fn source(&self) -> String {
        let vars: Vec<String> = (1..=self.arity).map(|j| format!("X{j}")).collect();
        let var_list = vars.join(", ");
        let mut src = String::new();
        for i in 1..=self.rules {
            let joined: Vec<String> = self.joins[i - 1].iter().map(|j| format!("X{j}")).collect();
            let slow_args = if joined.is_empty() {
                "N".to_string()
            } else {
                format!("{}, N", joined.join(", "))
            };
            src.push_str(&format!(
                "r{i} e{i}(@N, {var_list}) :- e{im1}(@L, {var_list}), s{i}(@L, {slow_args}).\n",
                im1 = i - 1,
            ));
        }
        src
    }

    /// The closed-form equivalence keys: the location plus every
    /// attribute some rule joins with slow state.
    fn oracle_keys(&self) -> Vec<usize> {
        let mut keys = vec![0];
        for j in 1..=self.arity {
            if self.joins.iter().any(|s| s.contains(&j)) {
                keys.push(j);
            }
        }
        keys
    }

    fn delp(&self) -> Delp {
        Delp::new(parse_program(&self.source()).expect("generated program parses"))
            .expect("generated program is a valid DELP")
    }

    /// Event tuple with the given attribute values entering at node 0.
    fn event(&self, values: &[i64]) -> Tuple {
        assert_eq!(values.len(), self.arity);
        let mut args = vec![Value::Addr(NodeId(0))];
        args.extend(values.iter().map(|&v| Value::Int(v)));
        Tuple::new("e0", args)
    }

    /// Install all slow rows over domain {0,1} along a line of
    /// `rules + 1` nodes, so every event completes.
    fn deploy<R: ProvRecorder>(&self, rt: &mut Runtime<R>) {
        for i in 1..=self.rules {
            let node = NodeId(i as u32 - 1);
            let next = NodeId(i as u32);
            let k = self.joins[i - 1].len();
            for combo in 0..(1u32 << k) {
                let mut args = vec![Value::Addr(node)];
                for b in 0..k {
                    args.push(Value::Int(((combo >> b) & 1) as i64));
                }
                args.push(Value::Addr(next));
                rt.install(Tuple::new(format!("s{i}"), args))
                    .expect("slow rows install");
            }
        }
    }
}

fn random_bits(rng: &mut SeededRng, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.random_range(0..2u64) as i64).collect()
}

/// `GetEquiKeys` matches the closed-form oracle on every generated
/// chain program.
#[test]
fn get_equi_keys_matches_oracle() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x31_000 + case);
        let prog = ChainProgram::random(&mut rng);
        let delp = prog.delp();
        let keys = equivalence_keys(&delp);
        assert_eq!(keys.rel(), "e0");
        assert_eq!(keys.indices(), &prog.oracle_keys()[..], "{:?}", prog);
    }
}

/// Theorem 1 on generated programs: key-equal events give equivalent
/// trees; flipping a key attribute breaks equivalence.
#[test]
fn theorem1_on_generated_programs() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x32_000 + case);
        let prog = ChainProgram::random(&mut rng);
        let base = random_bits(&mut rng, 3);
        let delp = prog.delp();
        let keys = equivalence_keys(&delp);
        let net = topo::line(prog.rules + 1, Link::STUB_STUB);
        let mut rt = Runtime::builder(delp, net)
            .recorder(GroundTruthRecorder::new())
            .build()
            .unwrap();
        prog.deploy(&mut rt);

        let vals: Vec<i64> = base.iter().take(prog.arity).copied().collect();
        let ev1 = prog.event(&vals);

        // A key-equal sibling: flip one non-key attribute if one exists.
        let non_key: Option<usize> = (1..=prog.arity).find(|j| !keys.indices().contains(j));
        let mut vals2 = vals.clone();
        if let Some(j) = non_key {
            vals2[j - 1] = 1 - vals2[j - 1];
        }
        let ev2 = prog.event(&vals2);
        assert!(keys.equivalent(&ev1, &ev2).unwrap());

        rt.inject(ev1.clone()).unwrap();
        rt.run().unwrap();
        rt.inject(ev2.clone()).unwrap();
        rt.run().unwrap();
        let trees = rt.recorder().trees();
        // Both executions complete (ev1 == ev2 is possible when there is
        // no non-key attribute to flip — the engine still runs it twice).
        assert_eq!(trees.len(), 2);
        assert!(trees[0].2.equivalent(&trees[1].2));

        // Flip a non-location key attribute, if any rule joins one: the
        // slow tuples along the chain differ, so trees must diverge.
        if let Some(&j) = keys.indices().iter().find(|&&j| j != 0) {
            let mut vals3 = vals.clone();
            vals3[j - 1] = 1 - vals3[j - 1];
            let ev3 = prog.event(&vals3);
            assert!(!keys.equivalent(&ev1, &ev3).unwrap());
            rt.inject(ev3).unwrap();
            rt.run().unwrap();
            let trees = rt.recorder().trees();
            let last = &trees.last().unwrap().2;
            assert!(!trees[0].2.equivalent(last));
        }
    }
}

/// Theorems 3+5 on generated programs: Advanced round-trips every
/// output against the ground truth, including compressed executions.
#[test]
fn advanced_round_trip_on_generated_programs() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x33_000 + case);
        let prog = ChainProgram::random(&mut rng);
        let flip_count = rng.random_range(1..5u64) as usize;
        let flips: Vec<Vec<i64>> = (0..flip_count).map(|_| random_bits(&mut rng, 3)).collect();
        let delp = prog.delp();
        let keys = equivalence_keys(&delp);
        let n = prog.rules + 1;
        let net = topo::line(n, Link::STUB_STUB);
        let rec = TeeRecorder::new(AdvancedRecorder::new(n, keys), GroundTruthRecorder::new());
        let mut rt = Runtime::builder(delp, net).recorder(rec).build().unwrap();
        prog.deploy(&mut rt);

        for f in &flips {
            let vals: Vec<i64> = f.iter().take(prog.arity).copied().collect();
            rt.inject(prog.event(&vals)).unwrap();
            rt.run().unwrap();
        }
        assert!(!rt.outputs().is_empty());
        assert_eq!(rt.recorder().primary.hmap_misses(), 0);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
                .expect("queryable");
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .expect("ground truth recorded");
            assert_eq!(&got.tree, want);
        }
    }
}
