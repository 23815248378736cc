//! Unit-cost probes for the traced run, timed from the benchmark's own
//! code around calls into the `stream-engine` net layer.

use std::time::Instant;
use stream_engine::{serve, EngineConfig, Frame, IngestServer, MapOperator, NetClient};

/// Encode + decode cost per record of RECORDS frames carrying `xs` in
/// `batch`-record frames, repeated until at least 20 ms were timed.
pub fn codec_ns_per_record(xs: &[f64], batch: usize) -> f64 {
    let frames: Vec<Frame> = xs
        .chunks(batch)
        .map(|c| Frame::Records {
            stream: 0,
            values: c.to_vec(),
        })
        .collect();
    let mut buf = Vec::new();
    let (mut records, mut ns) = (0u64, 0u64);
    while ns < 20_000_000 {
        let t0 = Instant::now();
        for f in &frames {
            buf.clear();
            f.encode_into(&mut buf);
            let (back, used) = Frame::decode(&buf).expect("a frame just encoded decodes");
            assert_eq!(used, buf.len());
            std::hint::black_box(back);
        }
        ns += t0.elapsed().as_nanos() as u64;
        records += xs.len() as u64;
    }
    ns as f64 / records.max(1) as f64
}

type Identity = MapOperator<f64, f64, fn(f64) -> f64>;

fn identity(x: f64) -> f64 {
    x
}

/// Stop-and-wait RECORDS round trips over loopback against a one-shard
/// engine running an identity operator, for workloads that do not use
/// the wire: the send-to-ack time the net layer alone adds to
/// `frames` frames of `batch` records of `xs`. Returns the samples in ns.
pub fn wire_round_trips(xs: &[f64], batch: usize, frames: usize) -> Result<Vec<u64>, String> {
    let (_, samples) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| {
            Identity::new(identity as fn(f64) -> f64)
        })
        .map_err(|e| format!("bind loopback ingest server: {e}"))?;
        let mut client =
            NetClient::connect(server.addr(), "perfbench-probe").map_err(|e| e.to_string())?;
        let id = client
            .register("perfbench-probe", None)
            .map_err(|e| e.to_string())?;
        let mut took = Vec::with_capacity(frames);
        for chunk in xs.chunks(batch).cycle().take(frames) {
            let t0 = Instant::now();
            client.send_records(id, chunk).map_err(|e| e.to_string())?;
            took.push(t0.elapsed().as_nanos() as u64);
        }
        client.detach(id).map_err(|e| e.to_string())?;
        drop(client);
        drop(server);
        Ok(took)
    });
    samples
}
