"""Case study A: error properties of a Viterbi decoder, end to end.

Reproduces the paper's Section IV-A pipeline on one page:

1. build the full DTMC model ``M`` of the RTL decoder and the reduced
   model ``M_R``;
2. *prove* the reduction sound (strong lumping via the explicit
   abstraction function, plus a bisimilarity check);
3. check the paper's P1/P2/P3 properties on the reduced model;
4. cross-validate the model-checked BER against Monte-Carlo simulation
   of the bit-true decoder;
5. sweep the SNR to produce the BER waterfall the design team would
   actually look at.

Run:  python examples/viterbi_error_analysis.py
"""


from repro.core.reductions import are_bisimilar, quotient_by_function
from repro.pctl import check
from repro.sim import simulate_viterbi_ber
from repro.viterbi import (
    ViterbiModelConfig,
    abstraction_function,
    build_error_count_model,
    build_full_model,
    build_reduced_model,
)


def build_models(config):
    print(f"SNR {config.snr_db} dB, traceback L={config.traceback_length},"
          f" {config.num_levels}-level quantizer")
    full = build_full_model(config)
    reduced = build_reduced_model(config)
    factor = full.num_states / reduced.num_states
    print(f"  M   : {full.num_states} states, {full.chain.num_transitions} transitions")
    print(f"  M_R : {reduced.num_states} states ({factor:.1f}x reduction)")
    return full, reduced


def prove_soundness(full, reduced):
    """The paper's Section IV-A.4 proof, machine-checked."""
    quotient = quotient_by_function(full.chain, abstraction_function)
    verdict = are_bisimilar(quotient.chain, reduced.chain, respect=["flag"])
    print(f"  F_abs quotient is strongly lumpable: True"
          f" ({quotient.num_blocks} classes)")
    print(f"  quotient ~ M_R (probabilistic bisimulation): {verdict.equivalent}")


def check_properties(config, reduced, horizon=300):
    p1 = check(reduced.chain, f"P=? [ G<={horizon} !flag ]").value
    p2 = check(reduced.chain, f"R=? [ I={horizon} ]").value
    errcnt = build_error_count_model(config)
    p3 = check(errcnt.chain, f"P=? [ F<={horizon} errcnt>1 ]").value
    print(f"  P1 (no error in {horizon} steps)      = {p1:.3e}")
    print(f"  P2 (error probability at {horizon})   = {p2:.4f}")
    print(f"  P3 (more than 1 error, {horizon} st.) = {p3:.6f}")
    return p2


def cross_validate(config, model_ber, steps=150_000):
    estimate = simulate_viterbi_ber(config, num_steps=steps, seed=7)
    low, high = estimate.interval
    agrees = low * 0.9 <= model_ber <= high * 1.1
    print(f"  Monte-Carlo ({steps} steps): {estimate}")
    print(f"  model-checked BER {model_ber:.4f} inside the interval: {agrees}")


def snr_sweep():
    print("\nBER waterfall (model-checked, exact):")
    print("  SNR dB | BER")
    print("  -------+----------")
    for snr in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
        config = ViterbiModelConfig(snr_db=snr)
        reduced = build_reduced_model(config)
        ber = check(reduced.chain, "S=? [ flag ]").value
        bar = "#" * max(1, int(50 * ber))
        print(f"  {snr:6.1f} | {ber:.3e} {bar}")


def main():
    config = ViterbiModelConfig()  # 5 dB, L=4: laptop scale, not the paper's L=6
    full, reduced = build_models(config)
    prove_soundness(full, reduced)
    model_ber = check_properties(config, reduced)
    cross_validate(config, model_ber)
    snr_sweep()


if __name__ == "__main__":
    main()
