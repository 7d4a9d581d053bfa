//! Property tests for the value/tuple model and partitioning.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Partitioner, Tuple, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
    ]
}

proptest! {
    #[test]
    fn value_ordering_is_total_and_antisymmetric(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                // Eq values must share key bits (hash consistency).
                prop_assert_eq!(a.key_bits(), b.key_bits());
            }
        }
    }

    #[test]
    fn value_ordering_is_transitive(
        mut vs in proptest::collection::vec(value_strategy(), 3..20),
    ) {
        vs.sort();
        for w in vs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn tuple_roundtrip_through_values(ints in proptest::collection::vec(any::<i64>(), 0..9)) {
        let t = Tuple::from_ints(&ints);
        prop_assert_eq!(t.arity(), ints.len());
        let back: Vec<i64> = t.values().iter().map(|v| v.expect_int()).collect();
        prop_assert_eq!(back, ints);
    }

    #[test]
    fn partitioner_is_stable_and_in_range(
        n in 1usize..64,
        keys in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let p = Partitioner::new(n);
        for &k in &keys {
            let w = p.of_key(k);
            prop_assert!(w < n);
            prop_assert_eq!(p.of_key(k), w, "stable");
        }
    }

    #[test]
    fn equal_values_partition_identically(
        // Restricted to the f64-exact integer range, where Int(v) == Float(v).
        v in -(1i64 << 52)..(1i64 << 52),
        n in 1usize..32,
    ) {
        let p = Partitioner::new(n);
        prop_assert_eq!(
            p.of_key(Value::Int(v).key_bits()),
            p.of_key(Value::Float(v as f64).key_bits())
        );
    }
}
