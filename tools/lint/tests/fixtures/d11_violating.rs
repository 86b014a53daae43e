//! D11 fixture: non-associative float reductions inside `par_map*`
//! closures — the grouping (and therefore the rounding) would depend on
//! chunking and thread count.

pub fn mean_cost(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    par_map(xs, 2, |_, x| {
        total += x;
        *x
    });
    total / xs.len() as f64
}

pub fn chunk_sums(chunks: &[Vec<f64>]) -> Vec<f64> {
    par_map_threads(chunks, 2, 4, |_, c| c.iter().sum::<f64>())
}

pub fn absorb(campaigns: &mut [Campaign], busy_s: &mut f64) {
    par_map_mut(campaigns, 2, |_, c| {
        *busy_s += c.elapsed_s();
        c.absorb()
    });
}
