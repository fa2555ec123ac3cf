//! Pinned outputs of the centralized MIS kernels: `luby::run`,
//! `metivier::{run, run_region, run_partial}` and
//! `bounded_arb_independent_set` (Algorithm 1, per-iteration trace on,
//! ρ_k cutoff on and off) over six families, three seeds and random
//! region masks.
//!
//! Every digest in `PINS` was recorded from the per-iteration
//! `ActiveView` loops these functions ran before they became drivers of
//! the flat engine. Each row hashes the whole output (MIS, bad and
//! residual active masks, iteration count and the JSON-serialized
//! `ScaleTrace`s) and names the round count in clear, so any change to a
//! coin draw, a comparison, the round convention or the trace
//! bookkeeping fails here.
//!
//! `ARBMIS_PINS` pins whole `arb_mis` outcomes, recorded while its
//! shattering phase still ran on a compacted copy of the
//! degree-reduction region; it now runs in place on the parent graph.

use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::{arb_mis, luby, metivier, ArbMisConfig, ParamMode};
use arbmis::graph::digest::Fnv128;
use arbmis::graph::{gen, Graph};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `(family, graph, arboricity bound)`.
fn families() -> Vec<(&'static str, Graph, usize)> {
    let r = |s: u64| StdRng::seed_from_u64(s);
    vec![
        ("tree", gen::random_tree_prufer(400, &mut r(1)), 1),
        ("forests2", gen::forest_union(400, 2, &mut r(2)), 2),
        ("ktree3", gen::random_ktree(400, 3, &mut r(3)), 3),
        ("apollonian", gen::apollonian(400, &mut r(4)), 3),
        ("gnp", gen::gnp(300, 0.03, &mut r(5)), 6),
        ("ba3", gen::barabasi_albert(400, 3, &mut r(6)), 3),
        (
            "bipartite",
            gen::random_bipartite(40, 1500, 0.4, &mut r(7)),
            2,
        ),
    ]
}

/// A random node mask with roughly 60% of the nodes in it.
fn region_mask(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_4749);
    (0..n).map(|_| rng.gen_bool(0.6)).collect()
}

fn digest(s: &str) -> String {
    let mut h = Fnv128::new();
    h.write_str(s);
    h.hex()
}

/// Every pinned case as `(label, rounds, digest)`.
fn compute_rows() -> Vec<(String, u64, String)> {
    let mut rows = Vec::new();
    for (fam, g, alpha) in families() {
        for seed in 0..3u64 {
            let r = luby::run(&g, seed);
            rows.push((
                format!("luby/{fam}/s{seed}"),
                r.rounds,
                digest(&format!("{:?}|{}", r.in_mis, r.iterations)),
            ));
            let r = metivier::run(&g, seed);
            rows.push((
                format!("metivier/{fam}/s{seed}"),
                r.rounds,
                digest(&format!("{:?}|{}", r.in_mis, r.iterations)),
            ));
            let region = region_mask(g.n(), seed);
            let r = metivier::run_region(&g, &region, seed);
            rows.push((
                format!("region/{fam}/s{seed}"),
                r.rounds,
                digest(&format!("{:?}|{}", r.in_mis, r.iterations)),
            ));
            for budget in [1, 2, 5] {
                let p = metivier::run_partial(&g, seed, budget);
                rows.push((
                    format!("partial{budget}/{fam}/s{seed}"),
                    3 * p.iterations,
                    digest(&format!("{:?}|{:?}|{}", p.in_mis, p.active, p.iterations)),
                ));
            }
            // Λ = 1 (`lambda_scale` 0.001): one iteration per scale, so
            // sparse families end with a nonempty residual `VIB`.
            for (lam, lambda_scale) in [("", 1.0), ("_lam1", 0.001)] {
                for rho_cutoff in [true, false] {
                    let cfg = BoundedArbConfig {
                        mode: ParamMode::Practical { lambda_scale },
                        rho_cutoff,
                        record_iterations: true,
                        ..BoundedArbConfig::new(alpha, seed)
                    };
                    let out = bounded_arb_independent_set(&g, &cfg);
                    let trace = serde_json::to_string(&out.trace).unwrap();
                    rows.push((
                        format!("arb{lam}_rho{}/{fam}/s{seed}", u8::from(rho_cutoff)),
                        out.rounds,
                        digest(&format!(
                            "{:?}|{:?}|{:?}|{}|{trace}",
                            out.in_mis, out.bad, out.active, out.iterations
                        )),
                    ));
                }
            }
        }
    }
    rows
}

#[rustfmt::skip]
const PINS: &[(&str, u64, &str)] = &[
    ("luby/tree/s0", 15, "d419c863757cf5f03a1ffcae377d91a1"),
    ("metivier/tree/s0", 6, "3a4463222f856035b4659cde9a636348"),
    ("region/tree/s0", 6, "1e42a5a279e88a176229c638140b5630"),
    ("partial1/tree/s0", 3, "2cb408a5fc2b6e389fd649f50e58dba1"),
    ("partial2/tree/s0", 6, "1d3b86c4bfcf012e5cf75d9c22311a0c"),
    ("partial5/tree/s0", 6, "1d3b86c4bfcf012e5cf75d9c22311a0c"),
    ("arb_rho1/tree/s0", 164, "c4d162fd41b942f82bcabd0a8786ed58"),
    ("arb_rho0/tree/s0", 164, "c4d162fd41b942f82bcabd0a8786ed58"),
    ("arb_lam1_rho1/tree/s0", 5, "45baeb7ac0124d9bda90d665aa5df743"),
    ("arb_lam1_rho0/tree/s0", 5, "45baeb7ac0124d9bda90d665aa5df743"),
    ("luby/tree/s1", 15, "d7da91585146b733c1ee49e00ed9a6a0"),
    ("metivier/tree/s1", 9, "585b489b1e641b69b32d2467201f642a"),
    ("region/tree/s1", 6, "22c83f4df94b988108c8b0ba2cd5e4ed"),
    ("partial1/tree/s1", 3, "d72398719a03170d8f2b39590ca03754"),
    ("partial2/tree/s1", 6, "cdc87c41206418e5398263084ae755ff"),
    ("partial5/tree/s1", 9, "b65163b46101b4747f9992d684c10618"),
    ("arb_rho1/tree/s1", 164, "e3cc04bcda3abb0ffc77b1886e2997fd"),
    ("arb_rho0/tree/s1", 164, "e3cc04bcda3abb0ffc77b1886e2997fd"),
    ("arb_lam1_rho1/tree/s1", 5, "78c68394f39016164a0e24406fc0deeb"),
    ("arb_lam1_rho0/tree/s1", 5, "78c68394f39016164a0e24406fc0deeb"),
    ("luby/tree/s2", 12, "8ab9724e5199623b042ff221ef296313"),
    ("metivier/tree/s2", 6, "5af2f1d29c2c22750615efef9e92087f"),
    ("region/tree/s2", 6, "b8a69de7d5849455764efed012666327"),
    ("partial1/tree/s2", 3, "4ec06ce47159836f8786dae80f96264e"),
    ("partial2/tree/s2", 6, "1326b56ed29b39026e7eca4026f2706d"),
    ("partial5/tree/s2", 6, "1326b56ed29b39026e7eca4026f2706d"),
    ("arb_rho1/tree/s2", 164, "3271603dcfe1b2ed7c599d77dca0b066"),
    ("arb_rho0/tree/s2", 164, "3271603dcfe1b2ed7c599d77dca0b066"),
    ("arb_lam1_rho1/tree/s2", 5, "614d3c7ce85e89030e6ce8fac1730573"),
    ("arb_lam1_rho0/tree/s2", 5, "614d3c7ce85e89030e6ce8fac1730573"),
    ("luby/forests2/s0", 15, "dc15c7f642e328194a23041d3b852188"),
    ("metivier/forests2/s0", 9, "2239bbd2d606548211d80ac8b26cf2ba"),
    ("region/forests2/s0", 9, "7b30b20858d2859d2cc2d9337bb8b51a"),
    ("partial1/forests2/s0", 3, "5a84ff039126459eb5424b1befd03830"),
    ("partial2/forests2/s0", 6, "c149308b199a9bec6503577013cc475c"),
    ("partial5/forests2/s0", 9, "de2daf83048ba2b85275256dcbe28ea8"),
    ("arb_rho1/forests2/s0", 995, "245df1c1ac91b572836900075353da7f"),
    ("arb_rho0/forests2/s0", 995, "245df1c1ac91b572836900075353da7f"),
    ("arb_lam1_rho1/forests2/s0", 5, "d95483c994bf98434f73b6757ba6e55b"),
    ("arb_lam1_rho0/forests2/s0", 5, "d95483c994bf98434f73b6757ba6e55b"),
    ("luby/forests2/s1", 18, "e7eceaf1bded742e983e9a2130ef46c0"),
    ("metivier/forests2/s1", 9, "56074b21d8282bbe092e9e02baf00f84"),
    ("region/forests2/s1", 9, "77a3004228eec237172b753c9a50b03d"),
    ("partial1/forests2/s1", 3, "431d94528e1402282d111b43ec060846"),
    ("partial2/forests2/s1", 6, "6297f91248667c1521f597af8e8c35a3"),
    ("partial5/forests2/s1", 9, "a40157773ee7fa9967071aef221f9f9a"),
    ("arb_rho1/forests2/s1", 995, "71c99d38cf7a19cb33e45fae10422f26"),
    ("arb_rho0/forests2/s1", 995, "71c99d38cf7a19cb33e45fae10422f26"),
    ("arb_lam1_rho1/forests2/s1", 5, "f8fe53380367b8062ca2ea8eb232e830"),
    ("arb_lam1_rho0/forests2/s1", 5, "f8fe53380367b8062ca2ea8eb232e830"),
    ("luby/forests2/s2", 24, "ee1324a652ec86d7cee81b0516212a3e"),
    ("metivier/forests2/s2", 9, "dc2cc70f31df74323126140fe879068f"),
    ("region/forests2/s2", 6, "e33461bae6ef1b8cc67c4ddd7da5b21f"),
    ("partial1/forests2/s2", 3, "52fb06bb71d57fc0b23eee3264288c59"),
    ("partial2/forests2/s2", 6, "8a1794cc6f25d9e49ad62b27d4d8a112"),
    ("partial5/forests2/s2", 9, "700c444f69833cec57faa3a271bbcdf3"),
    ("arb_rho1/forests2/s2", 995, "a0319479447248b0c5317234a44d1dc4"),
    ("arb_rho0/forests2/s2", 995, "a0319479447248b0c5317234a44d1dc4"),
    ("arb_lam1_rho1/forests2/s2", 5, "14d648ce8f80d6c9557a25a23140ebfc"),
    ("arb_lam1_rho0/forests2/s2", 5, "14d648ce8f80d6c9557a25a23140ebfc"),
    ("luby/ktree3/s0", 18, "969e1f95376d0eec1a7b489e121950cc"),
    ("metivier/ktree3/s0", 9, "f29bd4de5d21514012381f831de9675d"),
    ("region/ktree3/s0", 9, "47f288dd1e9b9f3d1867f2ee34d92d4b"),
    ("partial1/ktree3/s0", 3, "34edd48edca1353af3b8d11b6705b1c3"),
    ("partial2/ktree3/s0", 6, "6d9223e94767f0f49d4abdf5752d57a2"),
    ("partial5/ktree3/s0", 9, "3a05efb3efc36847e7093750a4e65121"),
    ("arb_rho1/ktree3/s0", 14275, "17ba039d06e8eb6bbfe08dc3797ec670"),
    ("arb_rho0/ktree3/s0", 14275, "17ba039d06e8eb6bbfe08dc3797ec670"),
    ("arb_lam1_rho1/ktree3/s0", 25, "e94169b87ee34f1eed476c775c003c54"),
    ("arb_lam1_rho0/ktree3/s0", 25, "e94169b87ee34f1eed476c775c003c54"),
    ("luby/ktree3/s1", 15, "53ff442b875bea29364990e49e2332f6"),
    ("metivier/ktree3/s1", 9, "db2f6a90d5727b7953b446d82049e6b3"),
    ("region/ktree3/s1", 9, "8baa540a144e3a177b46f34195747754"),
    ("partial1/ktree3/s1", 3, "e1806de5b4b910d64626af1feb60f78b"),
    ("partial2/ktree3/s1", 6, "ade0a33e50d7a3ee40323552cb627b1d"),
    ("partial5/ktree3/s1", 9, "4271f7c3db933406b7997511268734d7"),
    ("arb_rho1/ktree3/s1", 14275, "2d5e6205d517f70618ef167019ba18d7"),
    ("arb_rho0/ktree3/s1", 14275, "2d5e6205d517f70618ef167019ba18d7"),
    ("arb_lam1_rho1/ktree3/s1", 25, "f53f6bf980be03ddacf52f8ba91fab27"),
    ("arb_lam1_rho0/ktree3/s1", 25, "f53f6bf980be03ddacf52f8ba91fab27"),
    ("luby/ktree3/s2", 24, "d5f961ed45f62ebc8897d1c8dc957fc9"),
    ("metivier/ktree3/s2", 9, "a7aeea21c2faa1f34417bb48971c5069"),
    ("region/ktree3/s2", 9, "6ed40940fa0acf468acaeb57cbd43d17"),
    ("partial1/ktree3/s2", 3, "812ec63a3591fa22067b6c060f0131e6"),
    ("partial2/ktree3/s2", 6, "82cee660dfe5a1a4e3ab3cbf3183cda6"),
    ("partial5/ktree3/s2", 9, "9947ed70258c1227387ba59f46638d5d"),
    ("arb_rho1/ktree3/s2", 14275, "aae2558fe380308a77f97d698a1d46cf"),
    ("arb_rho0/ktree3/s2", 14275, "aae2558fe380308a77f97d698a1d46cf"),
    ("arb_lam1_rho1/ktree3/s2", 25, "e1a46928ed22ba94301256f84e3c20ee"),
    ("arb_lam1_rho0/ktree3/s2", 25, "e1a46928ed22ba94301256f84e3c20ee"),
    ("luby/apollonian/s0", 15, "92a487c2cfb1ca2a4cd32ade8aff6bae"),
    ("metivier/apollonian/s0", 9, "f11b5c277dc0b0b65248c081b7da0da6"),
    ("region/apollonian/s0", 6, "30c851428704037908a805ae136f628f"),
    ("partial1/apollonian/s0", 3, "d94c9ced5c712d4e0057ed27d8707fda"),
    ("partial2/apollonian/s0", 6, "629d951b8e7c2a8f2a3e4a5b2b81cdf7"),
    ("partial5/apollonian/s0", 9, "6bf344011f27efabc30fc18c3dbc5294"),
    ("arb_rho1/apollonian/s0", 11108, "3551fe908705fae197a1e712f7bdb3af"),
    ("arb_rho0/apollonian/s0", 11108, "3551fe908705fae197a1e712f7bdb3af"),
    ("arb_lam1_rho1/apollonian/s0", 20, "d74a692bc3cb0dd0f87d6a02b34620ac"),
    ("arb_lam1_rho0/apollonian/s0", 20, "d74a692bc3cb0dd0f87d6a02b34620ac"),
    ("luby/apollonian/s1", 18, "4ea76da88f9115e6bb0fe72cfa416843"),
    ("metivier/apollonian/s1", 9, "7c73b2375d4b556272169d8cf73d367e"),
    ("region/apollonian/s1", 9, "1e4af6978470fb10586ad360e2a92753"),
    ("partial1/apollonian/s1", 3, "c422ad5530ab529dfdb8ef6bf0447970"),
    ("partial2/apollonian/s1", 6, "a4bcdb56046278f9f916ee91f648a87d"),
    ("partial5/apollonian/s1", 9, "099c0b56b78dba884e6a045a691c5efc"),
    ("arb_rho1/apollonian/s1", 11108, "d10d8e9b55650ce818230cd4a7db6de0"),
    ("arb_rho0/apollonian/s1", 11108, "d10d8e9b55650ce818230cd4a7db6de0"),
    ("arb_lam1_rho1/apollonian/s1", 20, "5d378dc4a7c6f973a67e5da6abd12b80"),
    ("arb_lam1_rho0/apollonian/s1", 20, "5d378dc4a7c6f973a67e5da6abd12b80"),
    ("luby/apollonian/s2", 18, "5f0462a9d80ad7544d75443e0b2ea7be"),
    ("metivier/apollonian/s2", 9, "3e631875e843c70733fb2b156f1130fc"),
    ("region/apollonian/s2", 6, "1033944823d044d9711fd957ee3f86b8"),
    ("partial1/apollonian/s2", 3, "3e49d5b01bc7573cde6dc519a677fc1a"),
    ("partial2/apollonian/s2", 6, "bcc2acf667b535a0233299dcffd69197"),
    ("partial5/apollonian/s2", 9, "fbbc685bc7cb17127179c0682e4c60a2"),
    ("arb_rho1/apollonian/s2", 11108, "277e8de2143d9988231ca0e610d48446"),
    ("arb_rho0/apollonian/s2", 11108, "277e8de2143d9988231ca0e610d48446"),
    ("arb_lam1_rho1/apollonian/s2", 20, "4561e9a83346786e1f1c965fb5bd2e97"),
    ("arb_lam1_rho0/apollonian/s2", 20, "4561e9a83346786e1f1c965fb5bd2e97"),
    ("luby/gnp/s0", 18, "31c6d65bb90afc898ff57489e306a137"),
    ("metivier/gnp/s0", 12, "7d26e08fa651783762049763345086c4"),
    ("region/gnp/s0", 9, "f25a7733de83f7eeb429660ca8c68923"),
    ("partial1/gnp/s0", 3, "833b79dddd73e8f87c54c40aead60794"),
    ("partial2/gnp/s0", 6, "0914d4405745cb25bcf89bae70207b02"),
    ("partial5/gnp/s0", 12, "140ec65b299ef78365740599dd048fe4"),
    ("arb_rho1/gnp/s0", 25522, "bc44044e74cc7512ea8c2bbd1f33888b"),
    ("arb_rho0/gnp/s0", 25522, "bc44044e74cc7512ea8c2bbd1f33888b"),
    ("arb_lam1_rho1/gnp/s0", 34, "b7ed92b92a08b5803f670245f1346085"),
    ("arb_lam1_rho0/gnp/s0", 34, "b7ed92b92a08b5803f670245f1346085"),
    ("luby/gnp/s1", 21, "57ad70220fe0783a179ee05809dfc36b"),
    ("metivier/gnp/s1", 9, "d9e3c8df9c5db467551bcb1c35455eb2"),
    ("region/gnp/s1", 9, "b93995e678606712a105e6383eea35c2"),
    ("partial1/gnp/s1", 3, "722d01eb4221b9b79f5942d62e05ad21"),
    ("partial2/gnp/s1", 6, "b4211efab8b72d150ec11f49beb25acf"),
    ("partial5/gnp/s1", 9, "4ab8cffe4df838937b6190856b1b5384"),
    ("arb_rho1/gnp/s1", 25522, "e9c8914d126d3cf839c9d9153487cb19"),
    ("arb_rho0/gnp/s1", 25522, "e9c8914d126d3cf839c9d9153487cb19"),
    ("arb_lam1_rho1/gnp/s1", 34, "34dda9b95c0d3877a2aad6a166a7db8b"),
    ("arb_lam1_rho0/gnp/s1", 34, "34dda9b95c0d3877a2aad6a166a7db8b"),
    ("luby/gnp/s2", 21, "21a481f1f8f2affb5bf3fc994dddd3fc"),
    ("metivier/gnp/s2", 12, "62efdf8838fe102e08a5dc2b3d53cf85"),
    ("region/gnp/s2", 9, "fae9dd322b96cc90447463acbdee44ff"),
    ("partial1/gnp/s2", 3, "37bc7138297adfca2c22717d95b902ad"),
    ("partial2/gnp/s2", 6, "cf26297b8806c5c0d606f1e90666ed2d"),
    ("partial5/gnp/s2", 12, "de0b775cddd3c74bf33abb6beca451e3"),
    ("arb_rho1/gnp/s2", 25522, "f2e1a00f4aae51783298052b7e6eaaf0"),
    ("arb_rho0/gnp/s2", 25522, "f2e1a00f4aae51783298052b7e6eaaf0"),
    ("arb_lam1_rho1/gnp/s2", 34, "64e3431da8c69ae616472d6b4ed8b6c4"),
    ("arb_lam1_rho0/gnp/s2", 34, "64e3431da8c69ae616472d6b4ed8b6c4"),
    ("luby/ba3/s0", 15, "f70212d809a5b4fe6151f708061fa37d"),
    ("metivier/ba3/s0", 9, "7772a06799dc339a292c9ce2ed5c51a2"),
    ("region/ba3/s0", 9, "ed8935a139b51468abdc218709073d33"),
    ("partial1/ba3/s0", 3, "fb87f9c14d6686d4005ab187cbf470a8"),
    ("partial2/ba3/s0", 6, "d3d345343426bf48fb9567d124c2d7ac"),
    ("partial5/ba3/s0", 9, "9e8c6c7c538640740c1d2e0df8606a00"),
    ("arb_rho1/ba3/s0", 11108, "b35684cd9b19bce99c1be01a2cd4a9b2"),
    ("arb_rho0/ba3/s0", 11108, "b35684cd9b19bce99c1be01a2cd4a9b2"),
    ("arb_lam1_rho1/ba3/s0", 20, "93a7678249584b6e3fa0854d34bb3ee9"),
    ("arb_lam1_rho0/ba3/s0", 20, "93a7678249584b6e3fa0854d34bb3ee9"),
    ("luby/ba3/s1", 18, "018da20664e8ce2f9ab608483a167ea3"),
    ("metivier/ba3/s1", 9, "8ccb3cab4651c4199c05e15ad3bf8423"),
    ("region/ba3/s1", 9, "d68d263bdc135a5a7e921c0e5556d256"),
    ("partial1/ba3/s1", 3, "ce5aca555c326dc9af58c356941abfba"),
    ("partial2/ba3/s1", 6, "315778b8c7538834e29391c589c91681"),
    ("partial5/ba3/s1", 9, "0d448b27e684a91f9a5a256a30407a47"),
    ("arb_rho1/ba3/s1", 11108, "8a9cd2477ee82513e00f5b5a9d99207a"),
    ("arb_rho0/ba3/s1", 11108, "8a9cd2477ee82513e00f5b5a9d99207a"),
    ("arb_lam1_rho1/ba3/s1", 20, "6935c0ccbbacbd95cdf68f348571ff9a"),
    ("arb_lam1_rho0/ba3/s1", 20, "6935c0ccbbacbd95cdf68f348571ff9a"),
    ("luby/ba3/s2", 15, "c8418ff7328ffd0955c4476ce419af68"),
    ("metivier/ba3/s2", 9, "b91fa433732e425f714d0c60ad34ebac"),
    ("region/ba3/s2", 9, "41a91a7506a2f7c5cc060c170d50cc4d"),
    ("partial1/ba3/s2", 3, "64e72969f1e7effbe2e2e4feb33dd00d"),
    ("partial2/ba3/s2", 6, "961c92da4b5d24c4319ff05c9dbba993"),
    ("partial5/ba3/s2", 9, "184311a3f392223a8efa15066bd90c52"),
    ("arb_rho1/ba3/s2", 11108, "6b128b0ba1ae42b9efd58e95d275738b"),
    ("arb_rho0/ba3/s2", 11108, "6b128b0ba1ae42b9efd58e95d275738b"),
    ("arb_lam1_rho1/ba3/s2", 20, "4b6e5ee4c438335051c9bd1dae5959fc"),
    ("arb_lam1_rho0/ba3/s2", 20, "4b6e5ee4c438335051c9bd1dae5959fc"),
    ("luby/bipartite/s0", 6, "e1b592bc96e7517da4ce6646a458666d"),
    ("metivier/bipartite/s0", 6, "e1b592bc96e7517da4ce6646a458666d"),
    ("region/bipartite/s0", 6, "e27944505455ce0d1fdf06485453b02b"),
    ("partial1/bipartite/s0", 3, "0e480c9d10299ba5bf60a485261e18f6"),
    ("partial2/bipartite/s0", 6, "26ea8cb2122d87f97c4cb30bfebe2c0f"),
    ("partial5/bipartite/s0", 6, "26ea8cb2122d87f97c4cb30bfebe2c0f"),
    ("arb_rho1/bipartite/s0", 8141, "25b9e716ad3e973c81841956e5629a73"),
    ("arb_rho0/bipartite/s0", 8141, "25b9e716ad3e973c81841956e5629a73"),
    ("arb_lam1_rho1/bipartite/s0", 35, "8383d263b43844640b7512eb971540a1"),
    ("arb_lam1_rho0/bipartite/s0", 35, "8383d263b43844640b7512eb971540a1"),
    ("luby/bipartite/s1", 6, "e1b592bc96e7517da4ce6646a458666d"),
    ("metivier/bipartite/s1", 6, "44406b688029c5dade7f15f041ceb43c"),
    ("region/bipartite/s1", 6, "1284b4e7e1764941a671b1209232c7ba"),
    ("partial1/bipartite/s1", 3, "85ce34c35f0f1488a220673a30d88139"),
    ("partial2/bipartite/s1", 6, "051a7908b28d3e08820c9c640ca41d64"),
    ("partial5/bipartite/s1", 6, "051a7908b28d3e08820c9c640ca41d64"),
    ("arb_rho1/bipartite/s1", 8141, "1048bb8348106ceb08c0036fad0abb41"),
    ("arb_rho0/bipartite/s1", 8141, "1048bb8348106ceb08c0036fad0abb41"),
    ("arb_lam1_rho1/bipartite/s1", 35, "2e12fbf68080847b627d4aca91f2037f"),
    ("arb_lam1_rho0/bipartite/s1", 35, "2e12fbf68080847b627d4aca91f2037f"),
    ("luby/bipartite/s2", 6, "e1b592bc96e7517da4ce6646a458666d"),
    ("metivier/bipartite/s2", 6, "e1b592bc96e7517da4ce6646a458666d"),
    ("region/bipartite/s2", 6, "b65899fca091d79bc101fdaff41ded70"),
    ("partial1/bipartite/s2", 3, "6c7c646b476e312230b5c28479d85d74"),
    ("partial2/bipartite/s2", 6, "26ea8cb2122d87f97c4cb30bfebe2c0f"),
    ("partial5/bipartite/s2", 6, "26ea8cb2122d87f97c4cb30bfebe2c0f"),
    ("arb_rho1/bipartite/s2", 8141, "e12a97afc37965f0436909dd6b2dbd09"),
    ("arb_rho0/bipartite/s2", 8141, "e12a97afc37965f0436909dd6b2dbd09"),
    ("arb_lam1_rho1/bipartite/s2", 35, "332439b2f2d3cd02b908d80e89fe9941"),
    ("arb_lam1_rho0/bipartite/s2", 35, "332439b2f2d3cd02b908d80e89fe9941"),
];

/// Asserts `rows` equal `pins` row by row; a failure prints the computed
/// table.
fn assert_pinned(rows: &[(String, u64, String)], pins: &[(&str, u64, &str)]) {
    let table: String = rows
        .iter()
        .map(|(l, r, d)| format!("    ({l:?}, {r}, {d:?}),\n"))
        .collect();
    assert_eq!(
        rows.len(),
        pins.len(),
        "case count changed; computed:\n{table}"
    );
    for ((label, rounds, dig), &(want_label, want_rounds, want_dig)) in rows.iter().zip(pins) {
        assert_eq!(label, want_label, "computed:\n{table}");
        assert_eq!(*rounds, want_rounds, "{label}: rounds");
        assert_eq!(dig, want_dig, "{label}: outputs");
    }
}

#[test]
fn kernels_reproduce_the_pinned_loop_outputs() {
    assert_pinned(&compute_rows(), PINS);
}

/// `(family, graph, arboricity bound)` for the end-to-end ArbMIS pins:
/// degree reduction fires on the first three (hubs above
/// `α·2^√(log n·log log n)`; on the broom it leaves a region whose
/// induced Δ is far below the graph's) and stays off on the last two.
fn arbmis_families() -> Vec<(&'static str, Graph, usize)> {
    let r = |s: u64| StdRng::seed_from_u64(s);
    vec![
        ("ba2000", gen::barabasi_albert(2000, 2, &mut r(45)), 2),
        ("broom", gen::broom(60, 1500), 1),
        ("ktree3", gen::random_ktree(1500, 3, &mut r(42)), 3),
        ("apollonian", gen::apollonian(1500, &mut r(43)), 3),
        ("forests2", gen::forest_union(1500, 2, &mut r(44)), 2),
    ]
}

/// Every ArbMIS case as `(label, rounds, digest)`: the whole
/// `ArbMisOutcome` (MIS, per-phase rounds, the shattering outcome with
/// its parameters and per-scale trace, bad-component sizes) under the
/// default schedule and under Λ = 1, which leaves a residual `VIB` for
/// the `V_lo`/`V_hi` finishers.
fn compute_arbmis_rows() -> Vec<(String, u64, String)> {
    let mut rows = Vec::new();
    for (fam, g, alpha) in arbmis_families() {
        for seed in 0..3u64 {
            for (lam, lambda_scale) in [("", 1.0), ("_lam1", 0.001)] {
                let cfg = ArbMisConfig {
                    mode: ParamMode::Practical { lambda_scale },
                    ..ArbMisConfig::new(alpha, seed)
                };
                let out = arb_mis(&g, &cfg);
                let reduced = !matches!(fam, "apollonian" | "forests2");
                assert_eq!(out.phases.degree_reduction > 0, reduced, "{fam}: reduction");
                rows.push((
                    format!("arbmis{lam}/{fam}/s{seed}"),
                    out.rounds,
                    digest(&serde_json::to_string(&out).unwrap()),
                ));
            }
        }
    }
    rows
}

#[rustfmt::skip]
const ARBMIS_PINS: &[(&str, u64, &str)] = &[
    ("arbmis/ba2000/s0", 3168, "d1a4075c0ed7dfd25b18bc529ae1db24"),
    ("arbmis_lam1/ba2000/s0", 18, "097e1335406b0d361ec39ed24488a576"),
    ("arbmis/ba2000/s1", 2065, "5fac578a32fec15676640f173a5108f9"),
    ("arbmis_lam1/ba2000/s1", 16, "c1e2609721d136eb548e6ccf719d05fb"),
    ("arbmis/ba2000/s2", 3186, "d9b9301537e6e6d6dba4358ba10ed90c"),
    ("arbmis_lam1/ba2000/s2", 18, "54aeeb5228d985edada251222a407580"),
    ("arbmis/broom/s0", 9, "54a80b8775b0dc37e63731275b3d862a"),
    ("arbmis_lam1/broom/s0", 9, "725f736ac5378f4ab7c216a5f7ca0861"),
    ("arbmis/broom/s1", 9, "b4afdbf498592589c9655592d465198f"),
    ("arbmis_lam1/broom/s1", 9, "ac49e386e537ff894c5c00f96ee44b0e"),
    ("arbmis/broom/s2", 9, "fc2ba562ab1de72a95115a31d9c3b412"),
    ("arbmis_lam1/broom/s2", 9, "9306bae4a1da31228404e83cea80bfb9"),
    ("arbmis/ktree3/s0", 8190, "7f3b299e621b378d2128a985773e034e"),
    ("arbmis_lam1/ktree3/s0", 18, "60f04ad6e4e4a315f4f015ab38e26c85"),
    ("arbmis/ktree3/s1", 8136, "6ab6d088aed7bd1929391643797704d5"),
    ("arbmis_lam1/ktree3/s1", 18, "1bce78d61eb52f6b14558c3ca00b4d7b"),
    ("arbmis/ktree3/s2", 8271, "d273252e4060fefa6249e96745e457b6"),
    ("arbmis_lam1/ktree3/s2", 18, "fca3e1ed69c21de54d6de28c132f67b5"),
    ("arbmis/apollonian/s0", 14200, "70cf10c8d149fda32f40a3f22cba57ef"),
    ("arbmis_lam1/apollonian/s0", 25, "699c4d17b480d6079b1559d958e4de42"),
    ("arbmis/apollonian/s1", 14200, "018e308efcd6822a1ba658e87695c8cd"),
    ("arbmis_lam1/apollonian/s1", 25, "98ec49aa1c3f691a428179665bb20c08"),
    ("arbmis/apollonian/s2", 14200, "c0cd81095887c232e5136e82856e836d"),
    ("arbmis_lam1/apollonian/s2", 25, "b8efd8d86835e148ab5d5e6aa3cf9558"),
    ("arbmis/forests2/s0", 995, "fe6140fdd2477ced7776f1b4aa76cafa"),
    ("arbmis_lam1/forests2/s0", 11, "072f25bccc42e0a664d90b0f7d3c573c"),
    ("arbmis/forests2/s1", 995, "657ae2157a5762a8d84b3d3bb607facc"),
    ("arbmis_lam1/forests2/s1", 11, "9d5d92765e01accd17e4b384427c053c"),
    ("arbmis/forests2/s2", 995, "c069acd75a1fd02f136d7beb8acd3528"),
    ("arbmis_lam1/forests2/s2", 11, "0b981a5f04d61a04ee3ae63d719e960d"),
];

#[test]
fn arbmis_reproduces_the_pinned_outcomes() {
    assert_pinned(&compute_arbmis_rows(), ARBMIS_PINS);
}
