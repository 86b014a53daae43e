//! D8 clean fixture: guards die before the risky call, and `Vec::append`
//! under a guard is not a WAL append.

pub fn flush(&self) {
    let pending = { self.state.plock().take_pending() };
    self.durable.append(pending);
}

pub fn survive(m: &std::sync::Mutex<u32>) {
    {
        let g = m.plock();
        touch(&g);
    }
    let r = std::panic::catch_unwind(|| step());
    use_it(r);
}

pub fn collect(m: &std::sync::Mutex<Vec<u32>>, out: &mut Vec<u32>) {
    let mut g = m.plock();
    out.append(&mut g);
}

pub fn step(&self, campaigns: &mut [Campaign]) -> Vec<bool> {
    let quantum = { self.books.plock().quantum };
    par_map_mut(campaigns, 2, |_, c| c.step(quantum))
}
