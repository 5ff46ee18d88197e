#!/bin/sh
# Property-test soak: runs every property-test suite and parser fuzz
# loop in release mode once per seed in SOAK_SEEDS (space-separated;
# default: eight fixed seeds) and stops at the first failing seed. The
# vendored proptest and the fuzz loops mix PROPTEST_SEED into each
# property's own seed, so every seed reaches new inputs, and a failing
# case prints the `PROPTEST_SEED=.. PROPTEST_CASES=..` pair that
# replays it.
set -u

SOAK_SEEDS=${SOAK_SEEDS:-"11 23 47 89 167 331 661 1321"}

for seed in $SOAK_SEEDS; do
	echo "soak: PROPTEST_SEED=$seed"
	if ! PROPTEST_SEED=$seed cargo test -q --release --workspace \
		--test assembler_properties --test isa_properties \
		--test predecode_equivalence \
		--test attest_adversarial --test merkle_props \
		--test rollout_machine --test obs_props \
		--test agg_equivalence --test batch_equivalence \
		--test cluster_props --test delta_equivalence \
		--test ops_equivalence --test wire_props \
		--test toolchain_properties --test parser_fuzz \
		--test verifier_adversarial ||
		! PROPTEST_SEED=$seed cargo test -q --release -p eilid_net --lib \
		cluster_pause_decoder_survives_mutated_blobs; then
		echo "soak: seed $seed failed"
		exit 1
	fi
done
echo "soak: all seeds passed ($SOAK_SEEDS)"
