//! D10 clean fixture: append-before-ack — a durable append/journal call
//! dominates every durable-state ack; read-only responses need none.

pub fn handle_register(&mut self, spec: CampaignSpec) -> Result<Response, ServeError> {
    Ok(Response::Registered {
        id: self.durable.admit_spec(&spec, None)?,
    })
}

pub fn handle_lookup(&mut self, features: Vec<f64>) -> Result<Response, ServeError> {
    // A hit is a read: it promises no durable state and journals nothing.
    if let Some(hit) = self.cache.get(&features) {
        return Ok(Response::CacheHit { config: hit });
    }
    self.journal_op(&RouterOp::Lookup {
        features: features.clone(),
    })?;
    Ok(Response::CacheMiss {
        campaign: self.campaign_for(&features),
        enqueued: false,
    })
}
