//! Unit costs: direct timed calls into each layer's public functions on
//! fixed inputs. Own timer (`Instant` around an inner loop), one warm-up,
//! then the median of `reps` repetitions. Nothing here goes through the
//! committee; these are the numbers a single-layer optimisation moves
//! first, and `README.md` says which end-to-end metric each should move.

use crate::compat::{
    commit_rules, crc32, decode_borrowed_from_slice, decode_from_slice, encode_to_vec, ledger_app,
    open_wal, sha256, transfer_tx, verify_batch, Batch, BatchData, BatchItem, BatchRef,
    Certificate, ClientConn, CoinShare, CommitEvent, Committee, Dag, Digest, Envelope, EnvelopeRef,
    Hashable, Header, KeyPair, Round, Scheme, StoreError, Transaction, Transport, TxSample,
    ValidatorId, Vote, WorkerId,
};
use crate::report::{Metric, RunResult};
use crate::socket::free_addrs;
use crate::stats::median;
use std::cell::Cell;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const MB: f64 = 1e6;

/// Median seconds of `reps` timed runs of `body`, after one warm-up run.
/// `body` returns the time of the part it wants measured.
fn median_secs(reps: usize, mut body: impl FnMut() -> Duration) -> f64 {
    body();
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| body().as_secs_f64()).collect();
    median(&samples).expect("at least one repetition")
}

/// Median seconds per call of `call`, timing `inner` calls per repetition
/// so that each repetition is long against the clock's resolution.
fn per_call(reps: usize, inner: usize, mut call: impl FnMut()) -> f64 {
    median_secs(reps, || {
        let start = Instant::now();
        for _ in 0..inner {
            call();
        }
        start.elapsed()
    }) / inner as f64
}

struct Out {
    reps: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Out {
    fn us(&mut self, name: &str, secs: f64) {
        self.metrics
            .push(Metric::new(name, secs * 1e6, "us", self.reps));
    }
    fn mb_s(&mut self, name: &str, bytes: usize, secs: f64) {
        self.metrics.push(Metric::new(
            name,
            bytes as f64 / MB / secs,
            "MB/s",
            self.reps,
        ));
    }
}

/// A 976 x 512 B batch: what `NarwhalConfig::default()` seals.
fn full_batch() -> Batch {
    let txs: Vec<Transaction> = (0..976).map(|i| Transaction::filler(i, 0, 512)).collect();
    let samples: Vec<TxSample> = (0..16)
        .map(|i| TxSample {
            id: i,
            submit_ns: i * 1_000,
        })
        .collect();
    Batch::new(ValidatorId(0), WorkerId(0), 1, txs, samples)
}

fn crypto(out: &mut Out, reps: usize) {
    let block = vec![0xabu8; 500_000];
    let secs = per_call(reps, 4, || {
        black_box(sha256(black_box(&block)));
    });
    out.mb_s("crypto.sha256_mb_s", block.len(), secs);

    let kps: Vec<KeyPair> = (0..7)
        .map(|i| KeyPair::for_index(Scheme::Ed25519, i))
        .collect();
    let digest = Digest::of(b"block digest");
    let sig = kps[0].sign_digest(&digest);
    out.us(
        "crypto.sign_us",
        per_call(reps, 16, || {
            black_box(kps[0].sign_digest(black_box(&digest)));
        }),
    );
    out.us(
        "crypto.verify_us",
        per_call(reps, 8, || {
            assert!(kps[0]
                .public()
                .verify_digest(Scheme::Ed25519, black_box(&digest), &sig));
        }),
    );
    let sigs: Vec<_> = kps.iter().map(|kp| kp.sign_digest(&digest)).collect();
    for quorum in [3usize, 7] {
        let items: Vec<BatchItem> = kps
            .iter()
            .zip(&sigs)
            .take(quorum)
            .map(|(kp, sig)| BatchItem {
                public: kp.public(),
                message: digest.as_bytes(),
                signature: *sig,
            })
            .collect();
        let secs = per_call(reps, 4, || {
            verify_batch(Scheme::Ed25519, black_box(&items)).expect("valid signatures");
        });
        out.us(&format!("crypto.verify_batch_{quorum}_us"), secs);
    }
}

fn sample_header(committee: &Committee, kps: &[KeyPair]) -> Header {
    let parents: Vec<Digest> = Certificate::genesis_set(committee)
        .iter()
        .map(Certificate::header_digest)
        .collect();
    let payload = (0..24u64)
        .map(|i| (Digest::of(&i.to_le_bytes()), WorkerId(0)))
        .collect();
    Header::new(&kps[0], ValidatorId(0), 1, payload, parents, None)
}

fn codec_and_types(out: &mut Out, reps: usize) {
    let batch = full_batch();
    let bytes = encode_to_vec(&batch);
    let secs = per_call(reps, 4, || {
        black_box(encode_to_vec(black_box(&batch)));
    });
    out.mb_s("codec.encode_batch_mb_s", bytes.len(), secs);
    let secs = per_call(reps, 4, || {
        black_box(decode_from_slice::<Batch>(black_box(&bytes)).expect("valid batch"));
    });
    out.mb_s("codec.decode_batch_owned_mb_s", bytes.len(), secs);
    out.us(
        "codec.decode_batch_borrowed_us",
        per_call(reps, 64, || {
            black_box(
                decode_borrowed_from_slice::<BatchRef>(black_box(&bytes)).expect("valid batch"),
            );
        }),
    );

    let (committee, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
    let header = sample_header(&committee, &kps);
    let header_bytes = encode_to_vec(&header);
    out.us(
        "codec.encode_header_us",
        per_call(reps, 2_000, || {
            black_box(encode_to_vec(black_box(&header)));
        }),
    );
    out.us(
        "codec.decode_header_us",
        per_call(reps, 2_000, || {
            black_box(decode_from_slice::<Header>(black_box(&header_bytes)).expect("valid header"));
        }),
    );
    let frame = encode_to_vec(&Envelope::new(3, bytes.clone()));
    out.us(
        "codec.envelope_parse_us",
        per_call(reps, 20_000, || {
            black_box(EnvelopeRef::parse(black_box(&frame)).expect("valid frame"));
        }),
    );

    let secs = per_call(reps, 2, || {
        black_box(black_box(&batch).digest());
    });
    out.mb_s("types.batch_digest_mb_s", bytes.len(), secs);
    let votes: Vec<Vote> = kps
        .iter()
        .enumerate()
        .map(|(j, kp)| Vote::new(kp, ValidatorId(j as u32), header.digest(), 1, header.author))
        .collect();
    out.us(
        "types.cert_assemble_us",
        per_call(reps, 500, || {
            black_box(Certificate::from_votes(
                &committee,
                header.clone(),
                black_box(&votes),
            ));
        }),
    );
    let cert = Certificate::from_votes(&committee, header, &votes).expect("quorum of votes");
    out.us(
        "types.cert_verify_us",
        per_call(reps, 4, || {
            black_box(&cert)
                .verify(&committee)
                .expect("valid certificate");
        }),
    );
}

fn storage(out: &mut Out, reps: usize, tmp: &Path) -> Result<(), String> {
    let bulk = vec![0x5au8; 500_000];
    let small = vec![0x5au8; 100];
    let store = open_wal(&tmp.join("layers.wal"))?;
    // A failing write (a full disk) must fail the run, not skew a median.
    let first_error: Cell<Option<String>> = Cell::new(None);
    let note = |result: Result<(), StoreError>| {
        if let Err(e) = result {
            first_error.set(first_error.take().or(Some(format!("layers.wal: {e}"))));
        }
    };
    let key = Cell::new(0u64);
    let put = |value: &[u8]| {
        key.set(key.get() + 1);
        note(store.put(&key.get().to_le_bytes(), value));
    };
    let secs = per_call(reps, 4, || put(&bulk));
    out.mb_s("storage.wal_put_bulk_mb_s", bulk.len(), secs);
    out.us(
        "storage.wal_put_small_us",
        per_call(reps, 2_000, || put(&small)),
    );
    let secs = median_secs(reps, || {
        put(&bulk);
        put(&bulk);
        let start = Instant::now();
        note(store.sync_barrier());
        start.elapsed()
    });
    out.us("storage.wal_barrier_us", secs);
    let secs = per_call(reps, 2, || {
        black_box(crc32(black_box(&bulk)));
    });
    out.mb_s("storage.crc32_mb_s", bulk.len(), secs);
    first_error.take().map_or(Ok(()), Err)
}

/// `rounds` rounds of a fully connected DAG over `kps`, round-major, every
/// header carrying its coin share (what a live primary proposes).
fn full_dag_certs(committee: &Committee, kps: &[KeyPair], rounds: Round) -> Vec<Certificate> {
    let mut parents: Vec<Digest> = Certificate::genesis_set(committee)
        .iter()
        .map(Certificate::header_digest)
        .collect();
    let mut certs = Vec::new();
    for r in 1..=rounds {
        let mut next = Vec::new();
        for (i, kp) in kps.iter().enumerate() {
            let share = Some(CoinShare::new(kp, r));
            let header = Header::new(kp, ValidatorId(i as u32), r, vec![], parents.clone(), share);
            let votes: Vec<Vote> = kps
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    Vote::new(v, ValidatorId(j as u32), header.digest(), r, header.author)
                })
                .collect();
            let cert = Certificate::from_votes(committee, header, &votes).expect("quorum of votes");
            next.push(cert.header_digest());
            certs.push(cert);
        }
        parents = next;
    }
    certs
}

fn fresh_dag(committee: &Committee) -> Dag {
    let mut dag = Dag::new();
    dag.insert_genesis(Certificate::genesis_set(committee));
    dag
}

fn core(out: &mut Out, reps: usize) {
    // One gc_depth window of a 10-validator DAG, as `micro.rs` builds it.
    // The insecure scheme: these measure the arena, not signatures.
    let (committee, kps) = Committee::deterministic(10, 1, Scheme::Insecure);
    let certs = full_dag_certs(&committee, &kps, 50);
    let secs = median_secs(reps, || {
        let mut dag = fresh_dag(&committee);
        let input = certs.clone();
        let start = Instant::now();
        for cert in input {
            dag.insert(black_box(cert));
        }
        let took = start.elapsed();
        black_box(dag);
        took
    });
    out.us("core.dag_insert_us", secs / certs.len() as f64);

    let mut dag = fresh_dag(&committee);
    for cert in &certs {
        dag.insert(cert.clone());
    }
    let anchor = dag.get(50, ValidatorId(0)).expect("anchor present").clone();
    let bottom = dag.get(1, ValidatorId(5)).expect("bottom present").clone();
    let ordered = HashSet::new();
    let walked = dag
        .collect_history(&anchor, &ordered)
        .expect("complete history")
        .len();
    let secs = per_call(reps, 1, || {
        black_box(
            dag.collect_history(black_box(&anchor), &ordered)
                .expect("complete history"),
        );
    });
    out.us("core.dag_history_us_per_cert", secs / walked as f64);
    out.us(
        "core.dag_path_exists_us",
        per_call(reps, 20, || {
            assert!(dag.path_exists(black_box(&anchor), black_box(&bottom)));
        }),
    );
}

/// Feeds one recorded n = 10, 200-round full DAG into fresh instances of
/// each commit rule. Checks that every rule commits and that two instances
/// of a rule emit the same anchor sequence.
fn consensus(out: &mut Out, reps: usize) {
    let (committee, kps) = Committee::deterministic(10, 1, Scheme::Insecure);
    let certs = full_dag_certs(&committee, &kps, 200);
    let rules = commit_rules(&committee).len();
    // A replay is ~2 000 calls, so fewer repetitions than the other layers
    // already time far more calls; an odd count keeps the median a sample.
    let replays = (reps / 5).max(3) | 1;
    for rule in 0..rules {
        let mut sequences: Vec<Vec<(Round, ValidatorId)>> = Vec::new();
        let mut name = "";
        let secs = median_secs(replays, || {
            let (rule_name, mut feed) = commit_rules(&committee).swap_remove(rule);
            name = rule_name;
            let mut dag = fresh_dag(&committee);
            let mut anchors = Vec::new();
            let mut in_rule = Duration::ZERO;
            for cert in &certs {
                dag.insert(cert.clone());
                let start = Instant::now();
                let committed = feed(&dag, cert);
                in_rule += start.elapsed();
                anchors.extend(committed);
            }
            sequences.push(anchors);
            in_rule
        });
        let per_cert_us = secs * 1e6 / certs.len() as f64;
        out.metrics.push(Metric::new(
            format!("{name}.on_cert_us"),
            per_cert_us,
            "us",
            replays as u64,
        ));
        if sequences[0].is_empty() {
            out.errors
                .push(format!("{name} committed nothing over 200 rounds"));
        }
        if sequences.iter().any(|s| *s != sequences[0]) {
            out.errors.push(format!(
                "two instances of {name} emitted different sequences"
            ));
        }
    }
}

fn execution(out: &mut Out, reps: usize) {
    // 100 batches of 1 000 transfers: 100 k transfers per pass.
    let batches: Vec<Batch> = (0..100u64)
        .map(|b| {
            let txs = (0..1_000u64)
                .map(|i| {
                    let id = b * 1_000 + i;
                    transfer_tx(
                        id,
                        (id % 1_024) as u16,
                        (id * 7 % 1_024) as u16,
                        1 + i as u32,
                    )
                })
                .collect();
            Batch::new(ValidatorId(0), WorkerId(0), b + 1, txs, Vec::new())
        })
        .collect();
    let synthetic: Vec<Batch> = (0..100u64)
        .map(|b| {
            Batch::synthetic(
                ValidatorId(0),
                WorkerId(0),
                b + 1,
                1_000,
                64_000,
                Vec::new(),
            )
        })
        .collect();
    let apply_all = |batches: &[Batch]| {
        let mut app = ledger_app();
        let start = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let event = CommitEvent {
                sequence: i as u64 + 1,
                ..Default::default()
            };
            black_box(app.apply(&event, &[BatchData::Full(batch.clone())]));
        }
        (start.elapsed(), app)
    };
    let per_ktx = batches.len() as f64;
    out.us(
        "execution.apply_data_us_per_ktx",
        median_secs(reps, || apply_all(&batches).0) / per_ktx,
    );
    out.us(
        "execution.apply_synthetic_us_per_ktx",
        median_secs(reps, || apply_all(&synthetic).0) / per_ktx,
    );
    let (_, app) = apply_all(&batches);
    let secs = per_call(reps, 20, || {
        black_box(app.snapshot());
    });
    out.metrics.push(Metric::new(
        "execution.snapshot_ms",
        secs * 1e3,
        "ms",
        out.reps,
    ));
}

fn runtime(out: &mut Out, reps: usize) -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback transport: {e}");
    let wait = Duration::from_secs(10);

    // Client ingest: 512 B `ClientTx`-sized frames from one `ClientConn`
    // into one transport's inbox.
    let sink = Transport::start(0, free_addrs(1).map_err(io)?[0], &[]).map_err(io)?;
    let mut client = ClientConn::connect(sink.local_addr()).map_err(io)?;
    let frame = vec![0x11u8; 520];
    let frames = 20_000usize;
    let mut lost = false;
    let secs = median_secs(reps.min(5), || {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let sender =
                scope.spawn(|| (0..frames).try_for_each(|_| client.send_payload(frame.clone())));
            for _ in 0..frames {
                lost |= sink.recv_timeout(wait).is_none();
            }
            lost |= sender.join().expect("sender thread").is_err();
        });
        start.elapsed()
    });
    out.metrics.push(Metric::new(
        "runtime.ingest_tx_per_s",
        frames as f64 / secs,
        "tx/s",
        reps.min(5) as u64,
    ));
    drop(client);
    sink.shutdown();

    // Transport to transport: 500 KB frames one way, then 1-byte ping-pong.
    let addrs = free_addrs(2).map_err(io)?;
    let a = Transport::start(0, addrs[0], &[(1, addrs[1])]).map_err(io)?;
    let b = Transport::start(1, addrs[1], &[(0, addrs[0])]).map_err(io)?;
    let bulk = vec![0x22u8; 500_000];
    let burst = 20usize;
    let secs = median_secs(reps.min(5), || {
        let start = Instant::now();
        for _ in 0..burst {
            a.send(1, bulk.clone());
        }
        for _ in 0..burst {
            lost |= b.recv_timeout(wait).is_none();
        }
        start.elapsed()
    });
    out.mb_s("runtime.transport_bulk_mb_s", bulk.len() * burst, secs);
    let mut rtts: Vec<f64> = Vec::new();
    for i in 0..(20 * reps.max(3)) {
        let start = Instant::now();
        a.send(1, vec![1]);
        lost |= b.recv_timeout(wait).is_none();
        b.send(0, vec![2]);
        lost |= a.recv_timeout(wait).is_none();
        if i >= 10 {
            rtts.push(start.elapsed().as_secs_f64());
        }
    }
    out.metrics.push(Metric::new(
        "runtime.transport_rtt_us",
        median(&rtts).expect("round trips") * 1e6,
        "us",
        rtts.len() as u64,
    ));
    a.shutdown();
    b.shutdown();
    if lost {
        return Err("a loopback frame was lost or timed out".into());
    }
    Ok(())
}

/// Every unit cost of section (b), `reps` repetitions each.
pub fn run(reps: usize, tmp: &Path) -> RunResult {
    let mut out = Out {
        reps: reps as u64,
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    crypto(&mut out, reps);
    codec_and_types(&mut out, reps);
    if let Err(e) = storage(&mut out, reps, tmp) {
        out.errors.push(e);
    }
    core(&mut out, reps);
    consensus(&mut out, reps);
    execution(&mut out, reps);
    if let Err(e) = runtime(&mut out, reps) {
        out.errors.push(e);
    }
    let measured = out.metrics.len() as u64;
    RunResult {
        attempted: measured.max(1),
        failed: 0,
        errors: out.errors,
        gated: out.metrics,
        diagnostics: Vec::new(),
    }
}
