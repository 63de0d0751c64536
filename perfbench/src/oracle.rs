//! Reply oracle: every reply the daemon sent is checked against the same
//! answer computed in-process.
//!
//! * `query-mapping`: the line `state.mapper_for(mode).recommend(ctx, k)`
//!   serialises to.
//! * `submit-manual`: the four progress frames and the final payload of
//!   the staged API run on a fresh store.
//! * A closing `job-status` per journaled job must return that payload
//!   byte-identically.

use crate::gen::{job_id, Generator};
use crate::load::{frame_hash, Record};
use crate::trace::{query_reply_line, replay_submit, Tracer};
use nassim_mapper::Context;
use nassim_serve::{Reply, Request, ServeClient, ServeState};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;

/// Expected frame hashes of every distinct query input in `records`.
fn expected_queries(
    state: &ServeState,
    generator: &Generator,
    records: &[Record],
) -> HashMap<(u64, String), Vec<u64>> {
    let mut distinct: BTreeMap<(u64, String), Request> = BTreeMap::new();
    for r in records {
        let item = generator.item(r.conn, r.index);
        if let Request::QueryMapping { mode, .. } = &item.request {
            distinct
                .entry((item.input_key, format!("{mode:?}")))
                .or_insert(item.request);
        }
    }
    let work: Vec<((u64, String), Request)> = distinct.into_iter().collect();
    let hashes = nassim_exec::par_map(&work, |(_, request)| match request {
        Request::QueryMapping {
            sequences, k, mode, ..
        } => {
            let mapper = state.mapper_for(*mode);
            let ranked = mapper.recommend(
                &Context {
                    sequences: sequences.clone(),
                },
                *k,
            );
            vec![frame_hash(&query_reply_line(&mapper, &ranked))]
        }
        _ => Vec::new(),
    });
    work.into_iter().map(|(key, _)| key).zip(hashes).collect()
}

/// Expected final payload per manual index of every submission in
/// `records`, from the staged API on a fresh store.
pub fn expected_submissions(
    generator: &Generator,
    records: &[Record],
) -> Result<BTreeMap<usize, (Vec<u64>, Value)>, String> {
    let mut out = BTreeMap::new();
    for r in records {
        let item = generator.item(r.conn, r.index);
        let Some(m) = item.manual else { continue };
        if out.contains_key(&m) {
            continue;
        }
        let replay = replay_submit(&mut Tracer::new(false), None, &item.request, None)?;
        let hashes = replay.frames.iter().map(|f| frame_hash(f)).collect();
        out.insert(m, (hashes, replay.payload));
    }
    Ok(out)
}

/// Check every record; returns the indices (into `records`) that failed:
/// an I/O error, a non-`ok` final frame, or frames other than expected.
pub fn check(
    state: &ServeState,
    generator: &Generator,
    records: &[Record],
    submissions: &BTreeMap<usize, (Vec<u64>, Value)>,
) -> Vec<usize> {
    let queries = expected_queries(state, generator, records);
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            if r.error.is_some() || !r.ok {
                return true;
            }
            let item = generator.item(r.conn, r.index);
            let expected = match (&item.request, item.manual) {
                (Request::QueryMapping { mode, .. }, _) => {
                    queries.get(&(item.input_key, format!("{mode:?}")))
                }
                (_, Some(m)) => submissions.get(&m).map(|(hashes, _)| hashes),
                _ => None,
            };
            expected != Some(&r.frames)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Ask for the status of every submitted job on one connection (all
/// requests first, then all replies) and return the indices whose
/// recorded payload differs from the expected one.
pub fn check_job_status(
    addr: SocketAddr,
    seed: u64,
    generator: &Generator,
    records: &[Record],
    submissions: &BTreeMap<usize, (Vec<u64>, Value)>,
) -> Result<Vec<usize>, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    for r in records {
        let line = Request::JobStatus {
            job: job_id(seed, r.conn, r.index),
        }
        .to_line();
        client.send_line(&line).map_err(|e| e.to_string())?;
    }
    let mut bad = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let line = client.read_raw().map_err(|e| e.to_string())?;
        let expected = generator
            .item(r.conn, r.index)
            .manual
            .and_then(|m| submissions.get(&m))
            .map(|(_, payload)| serde_json::to_string(payload));
        let recorded = match Reply::parse(&line) {
            Ok(Reply::Ok(status)) => status.get("result").map(serde_json::to_string),
            _ => None,
        };
        match (recorded, expected) {
            (Some(Ok(got)), Some(Ok(want))) if got == want => {}
            _ => bad.push(i),
        }
    }
    Ok(bad)
}
