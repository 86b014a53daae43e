//! D8 fixture: lock guards held across calls that can panic (poisoning
//! the lock) or stall (blocking every other acquirer on a WAL write).

pub fn flush_under_guard(&self) {
    let g = self.state.plock();
    self.durable.append(g.to_vec());
}

pub fn survive_under_guard(m: &std::sync::Mutex<u32>) {
    let g = m.plock();
    let r = std::panic::catch_unwind(|| step());
    use_both(g, r);
}

pub fn score_under_guard(&self, xs: &[f64]) -> Vec<f64> {
    let model = self.model.pread();
    par_map(xs, 2, |_, x| model.score(*x))
}

pub fn step_under_guard(&self, campaigns: &mut [Campaign]) -> Vec<bool> {
    let books = self.books.plock();
    par_map_mut(campaigns, 2, |_, c| c.step(books.quantum))
}
