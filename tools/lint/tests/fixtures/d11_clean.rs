//! D11 clean fixture: the map stays parallel, the fold is sequential —
//! either via the blessed ordered helpers or a closure-local
//! accumulator that never crosses items.

pub fn mean_cost(xs: &[f64]) -> f64 {
    let scored = par_map(xs, 2, |_, x| x * 1.5);
    ordered_mean(&scored)
}

pub fn per_chunk_fold(chunks: &[Vec<f64>]) -> Vec<f64> {
    par_map(chunks, 2, |_, c| {
        let mut acc = 0.0;
        for v in c {
            acc += v;
        }
        acc
    })
}

pub fn absorb(campaigns: &mut [Campaign]) -> f64 {
    let elapsed = par_map_mut(campaigns, 2, |_, c| c.absorb());
    ordered_sum(&elapsed)
}
